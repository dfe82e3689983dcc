//! The server core: a registry of named workbooks, each owned by a
//! single writer thread, with lock-free epoch snapshots for reads.
//!
//! # Concurrency model
//!
//! Every registered workbook is owned by **one worker thread**; nothing
//! else ever holds `&mut` to it. The two access paths:
//!
//! - **Reads** (`Get`, `GetRange`, `DirtyCount`, `Stats`) execute on the
//!   *caller's* thread against the workbook's current [`Snapshot`] — an
//!   immutable, `Arc`-shared copy of the cell values. The snapshot
//!   pointer lives in an `RwLock<Arc<Snapshot>>` whose write lock is held
//!   only for the pointer swap (and the read lock only for a pointer
//!   clone), so a reader never waits for an edit to apply, a batch to
//!   route, or a recalculation to finish — it just sees the previous
//!   epoch until the next one is published.
//! - **Writes** (`SetValue`, `SetFormula`, `Autofill`, `ClearRange`) and
//!   operations that need the graph or the file (`Dependents`,
//!   `Precedents`, `Recalc`, `RecalcRange`, `GetRangeFresh`, `Save`) are
//!   messages to the worker. The three recalculation requests are one
//!   message — a pass from every dirty cell or from a viewport
//!   ([`Workbook::recalc_demand`], the same pass with other roots), then
//!   one publication. The worker **coalesces** its queue: when it
//!   dequeues an edit it drains every immediately-available edit behind
//!   it (up to `MAX_BATCH`) and applies them as one
//!   [`Workbook::apply_batch`] — one dirty-propagation pass and **one**
//!   recalculation for the whole batch instead of one per edit. Batched
//!   and unbatched application are result-identical (property-tested in
//!   `crates/engine/tests/batch.rs` and end-to-end in
//!   `crates/service/tests/concurrent.rs`).
//!
//! # Snapshot publication
//!
//! After every batch the worker publishes a new [`Snapshot`]: per sheet,
//! a copy of its cell store's values page by page ([`Engine::publish`]).
//! A page is one column's `PAGE_ROWS` (256) rows, as the store holds it;
//! each records the write clock of its latest value write, so a copy made
//! from the previous epoch's shares, `Arc` for `Arc`, every page nothing
//! was written to since and copies the rest. An untouched sheet is shared
//! whole.
//!
//! The writer tells the publisher nothing: what changed is what the cell
//! store stamped. A structural edit rebuilds the store, so every page is
//! new and copied; a sheet the previous epoch lacks has nothing to share.
//!
//! **Cost model.** Publication visits every allocated page of every sheet
//! once (a clock compare, a pointer clone) and copies the `c` pages
//! written since — a one-cell edit and its dependents a handful, however
//! many cells the sheet holds. `Get` is one binary search; `GetRange`
//! steps across the pages its rows and columns overlap and emits in
//! `(row, col)` order with no sort. A sheet name resolves by an
//! allocation-free ASCII-case-insensitive scan of the sheet list.
//!
//! [`Engine::publish`]: taco_engine::Engine::publish
//!
//! A workbook may be backed by a [`PersistentWorkbook`] (WAL + snapshot
//! file): edits then go through [`PersistentWorkbook::log_batch`], which
//! appends the whole batch to the WAL with one fsync decision, so a crash
//! reopens to a clean *prefix* of the applied edit order (the WAL tear
//! rules of `taco_store::wal`). An `Autofill` takes the same path: the
//! worker expands it into the `SetFormula` records it stands for
//! ([`Workbook::autofill_records`]) and applies those as one batch, so a
//! fill is one durability decision however many cells it writes.
//!
//! Every registry runs an observability hub (`taco_obs`): the workbooks
//! it is given are attached to it, request, batch and publication spans
//! are recorded unconditionally, and `Metrics` / `TraceDump` always
//! answer.
//!
//! [`Workbook::apply_batch`]: taco_engine::Workbook::apply_batch
//! [`Workbook::recalc_demand`]: taco_engine::Workbook::recalc_demand
//! [`Workbook::autofill_records`]: taco_engine::Workbook::autofill_records

use crate::obs::ServiceObs;
use crate::protocol::{Request, Response, ServiceStats};
use crate::session::{Session, SessionToken};
use crate::ServiceError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use taco_core::StructuralOp;
use taco_engine::{
    PersistentWorkbook, RecalcMode, SheetId, SheetValues, Workbook, WorkbookReceipt,
};
use taco_formula::{Template, Value};
use taco_grid::{Cell, Range};
use taco_obs::{SpanCat, TraceContext};
use taco_store::EditRecord;

/// Locks `m`. A lock poisoned by a panicking holder is taken as it
/// stands: every holder leaves the data whole between statements, so one
/// failed request must not fail every request after it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for reading a [`RwLock`].
fn read_lock<T>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for writing a [`RwLock`].
fn write_lock<T>(rw: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rw.write().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning for a [`Registry`] and the workers it spawns.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// How workers recalculate. [`RecalcMode`] has one variant; the field
    /// survives only because `benchmark/`, which the change that removed
    /// the parallel schedules could not edit, reads
    /// `ServiceOptions::default().recalc_mode` (ROADMAP item 1 drops it).
    pub recalc_mode: RecalcMode,
    /// Bind address for the scrape sidecar (e.g. `"127.0.0.1:0"`): a
    /// minimal HTTP/1.1 listener serving `GET /metrics` (Prometheus
    /// text) and `GET /trace` (Chrome `trace_event` JSON). `None` (the
    /// default) runs no listener.
    pub http_metrics: Option<String>,
    /// Construction options of the registry's observability hub
    /// (per-operation latency histograms, engine/WAL instrumentation on
    /// every registered workbook, the `Metrics` and `TraceDump`
    /// requests): tracer ring sizes, slow threshold, clock, and id seed
    /// (a manual clock plus a fixed seed makes span trees reproducible
    /// in tests).
    pub obs_options: taco_obs::ObsOptions,
    /// Per-request deadline for operations that round-trip through a
    /// workbook's writer thread (writes, recalcs, graph queries, saves).
    /// When the worker does not reply in time the caller gets a typed
    /// [`ServiceError::DeadlineExceeded`] — note the operation may still
    /// complete afterwards (the worker keeps going; only the reply is
    /// abandoned), so for writes a deadline means *unknown*, not *not
    /// applied*. Snapshot reads never queue and are not subject to it.
    /// `None` (the default) waits indefinitely.
    pub deadline: Option<std::time::Duration>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            recalc_mode: RecalcMode::Serial,
            http_metrics: None,
            obs_options: taco_obs::ObsOptions::default(),
            deadline: None,
        }
    }
}

// ---- snapshots ----------------------------------------------------------

/// One sheet's slice of a snapshot; both halves are shared with the
/// previous epoch when nothing on the sheet was written.
#[derive(Clone)]
struct SheetSnap {
    name: Arc<str>,
    values: Arc<SheetValues>,
}

/// An immutable view of a workbook's cell values at one publication
/// epoch: per sheet, its cell store's pages, each `Arc`-shared with the
/// previous epoch when nothing was written to it since (see the module
/// docs, "Snapshot publication"). Cheap to share and cheap to republish:
/// a successor copies only the pages written since, so steady-state
/// publication cost follows the size of the edit, not of the sheet.
pub struct Snapshot {
    /// Publication counter; bumps once per published batch/recalc.
    pub epoch: u64,
    sheets: Vec<SheetSnap>,
    /// Cells awaiting recalculation when this epoch was published.
    pub dirty: u64,
    /// Non-empty cells across all sheets.
    pub cells_total: u64,
    /// Compressed formula-graph edges across all sheets.
    pub graph_edges: u64,
    /// Inter-sheet edges.
    pub cross_edges: u64,
}

impl Snapshot {
    /// Builds epoch 0 from a live workbook, every page copied: what the
    /// tests hold each successor to.
    fn build(wb: &Workbook) -> Snapshot {
        Snapshot::successor(None, wb).0
    }

    /// Builds `prev`'s successor, each sheet published from its slice of
    /// `prev` ([`Engine::publish`]) — a sheet `prev` lacks from nothing.
    /// Returns the pages copied alongside.
    fn successor(prev: Option<&Snapshot>, wb: &Workbook) -> (Snapshot, usize) {
        let mut copied = 0;
        let mut sheets = Vec::with_capacity(wb.sheet_count());
        for i in 0..wb.sheet_count() {
            let name = wb.sheet_name(SheetId(i));
            let known = prev.and_then(|p| p.sheets.get(i)).filter(|s| &*s.name == name);
            let (values, n) = wb.sheet(SheetId(i)).publish(known.map(|s| &*s.values));
            copied += n;
            let sheet = match known {
                // No page copied and no cell gone: no page dropped either.
                Some(known) if n == 0 && values.len() == known.values.len() => known.clone(),
                _ => SheetSnap {
                    name: known.map_or_else(|| Arc::from(name), |s| Arc::clone(&s.name)),
                    values: Arc::new(values),
                },
            };
            sheets.push(sheet);
        }
        let snapshot = Snapshot {
            epoch: prev.map_or(0, |p| p.epoch + 1),
            dirty: wb.dirty_count() as u64,
            cells_total: sheets.iter().map(|s| s.values.len() as u64).sum(),
            graph_edges: (0..wb.sheet_count())
                .map(|i| wb.sheet(SheetId(i)).graph().num_edges() as u64)
                .sum(),
            cross_edges: wb.cross_edge_count() as u64,
            sheets,
        };
        (snapshot, copied)
    }

    /// Resolves a sheet name (ASCII-case-insensitive) to its dense index.
    pub fn sheet_index(&self, name: &str) -> Option<usize> {
        self.sheets.iter().position(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// The sheet names, in dense order.
    pub fn sheet_names(&self) -> Vec<String> {
        self.sheets.iter().map(|s| s.name.to_string()).collect()
    }

    /// One cell's value (`Empty` for never-written cells).
    pub fn value(&self, sheet: usize, cell: Cell) -> Value {
        self.sheets.get(sheet).and_then(|s| s.values.get(cell)).cloned().unwrap_or(Value::Empty)
    }

    /// Every non-empty cell of `range`, sorted by (row, col).
    pub fn cells_in(&self, sheet: usize, range: Range) -> Vec<(Cell, Value)> {
        let mut out = Vec::new();
        if let Some(s) = self.sheets.get(sheet) {
            s.values.for_each_in(range, |cell, value| out.push((cell, value.clone())));
        }
        out
    }
}

// ---- worker plumbing ----------------------------------------------------

/// Monotone per-workbook counters (relaxed: they are diagnostics, not
/// synchronization).
#[derive(Default)]
struct Counters {
    edits: AtomicU64,
    batches: AtomicU64,
    recalcs: AtomicU64,
    coalesced: AtomicU64,
}

/// State shared between the worker thread and the registry. Deliberately
/// does **not** contain the worker's `Sender`: when the registry drops,
/// the sender drops with it and the worker's `recv` unblocks.
struct BookShared {
    snapshot: RwLock<Arc<Snapshot>>,
    stats: Counters,
    /// Set when a storage fault left the WAL (or snapshot file) behind
    /// the live workbook: writes are refused with a typed
    /// [`ServiceError::Degraded`] until a successful `Save` rewrites the
    /// snapshot from the live state and heals the log. Reads keep
    /// serving the published snapshots throughout.
    degraded: AtomicBool,
    /// Which fault started the degradation (for the error payload).
    degraded_reason: Mutex<String>,
}

impl BookShared {
    /// Enters the degraded state; returns `true` on the transition (so
    /// the caller can bump the fleet gauge exactly once).
    fn degrade(&self, reason: String) -> bool {
        *lock(&self.degraded_reason) = reason;
        !self.degraded.swap(true, Ordering::SeqCst)
    }

    /// Leaves the degraded state; returns `true` on the transition.
    fn heal(&self) -> bool {
        self.degraded.swap(false, Ordering::SeqCst)
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The reply writes get while the workbook is degraded.
    fn degraded_error(&self) -> ServiceError {
        ServiceError::Degraded(lock(&self.degraded_reason).clone())
    }
}

/// One queued write.
enum WriteOp {
    Edit(EditRecord),
    Autofill { sheet: u32, src: Cell, targets: Range },
}

/// One message to a workbook's worker. Every work-carrying variant
/// carries the requesting span's [`TraceContext`] so the worker can
/// parent what it records (engine recalc spans, WAL appends, publication)
/// under the request that caused it — `NONE` when tracing is off or the
/// caller had no span.
enum WorkerMsg {
    Write {
        op: WriteOp,
        ctx: TraceContext,
        reply: Sender<Response>,
    },
    Graph {
        dependents: bool,
        sheet: u32,
        range: Range,
        ctx: TraceContext,
        reply: Sender<Response>,
    },
    /// One recalculation pass and one publication: from every dirty
    /// cell, or from what `viewport` (sheet, range) needs; `fetch`
    /// answers with the viewport's cells as just published instead of
    /// the pass's count.
    Recalc {
        viewport: Option<(u32, Range)>,
        fetch: bool,
        ctx: TraceContext,
        reply: Sender<Response>,
    },
    Save {
        ctx: TraceContext,
        reply: Sender<Response>,
    },
    Shutdown,
}

/// A registered workbook: its shared read state plus the writer queue.
struct BookHandle {
    auth: Option<String>,
    shared: Arc<BookShared>,
    tx: Mutex<Sender<WorkerMsg>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl BookHandle {
    fn send(&self, msg: WorkerMsg) -> Result<(), ServiceError> {
        lock(&self.tx).send(msg).map_err(|_| ServiceError::ShuttingDown)
    }

    /// Sends `msg` and waits for the worker's reply, up to `deadline`
    /// when one is configured. On timeout the reply channel is dropped
    /// and the worker's eventual answer goes nowhere — the operation
    /// itself is not cancelled.
    fn ask(
        &self,
        deadline: Option<std::time::Duration>,
        make: impl FnOnce(Sender<Response>) -> WorkerMsg,
    ) -> Response {
        let (reply, rx) = channel();
        if self.send(make(reply)).is_err() {
            return Response::Err(ServiceError::ShuttingDown);
        }
        match deadline {
            None => match rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response::Err(ServiceError::ShuttingDown),
            },
            Some(d) => match rx.recv_timeout(d) {
                Ok(resp) => resp,
                Err(RecvTimeoutError::Timeout) => Response::Err(ServiceError::DeadlineExceeded),
                Err(RecvTimeoutError::Disconnected) => Response::Err(ServiceError::ShuttingDown),
            },
        }
    }
}

/// What a worker owns: a bare workbook, or one with a WAL+snapshot home.
enum Backing {
    Plain(Workbook),
    Persistent(PersistentWorkbook),
}

impl Backing {
    fn workbook(&self) -> &Workbook {
        match self {
            Backing::Plain(wb) => wb,
            Backing::Persistent(p) => p.workbook(),
        }
    }

    fn workbook_mut(&mut self) -> &mut Workbook {
        match self {
            Backing::Plain(wb) => wb,
            Backing::Persistent(p) => p.workbook_mut(),
        }
    }

    /// One batch, logged when persistent.
    fn apply_batch(
        &mut self,
        records: &[EditRecord],
    ) -> Result<WorkbookReceipt, taco_engine::BatchError> {
        match self {
            Backing::Plain(wb) => wb.apply_batch(records),
            Backing::Persistent(p) => p.log_batch(records),
        }
    }

    /// Attaches engine (and, when persistent, WAL) instrumentation.
    fn attach_obs(&mut self, obs: &taco_obs::Obs, label: &str) {
        match self {
            Backing::Plain(wb) => wb.attach_obs(obs, label),
            Backing::Persistent(p) => p.attach_obs(obs, label),
        }
    }
}

// ---- the registry -------------------------------------------------------

/// A registry of named workbooks plus the session table; the shared core
/// both transports execute against.
pub struct Registry {
    opts: ServiceOptions,
    books: RwLock<HashMap<String, Arc<BookHandle>>>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_seq: AtomicU64,
    token_seed: u64,
    down: AtomicBool,
    /// Shared with every workbook's writer thread.
    svc_obs: Arc<ServiceObs>,
    http: Mutex<Option<crate::http::HttpSidecar>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(ServiceOptions::default())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new(opts: ServiceOptions) -> Registry {
        let token_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED)
            | 1;
        let svc_obs = Arc::new(ServiceObs::new(taco_obs::Obs::new(opts.obs_options.clone())));
        // The scrape sidecar is best-effort: a bind failure (port taken,
        // no permission) leaves `http_addr()` as `None` rather than
        // failing registry construction.
        let http = opts
            .http_metrics
            .as_deref()
            .and_then(|addr| crate::http::HttpSidecar::start(addr, Arc::clone(&svc_obs.hub)).ok());
        Registry {
            opts,
            books: RwLock::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
            token_seed,
            down: AtomicBool::new(false),
            svc_obs,
            http: Mutex::new(http),
        }
    }

    /// The scrape sidecar's bound address, when
    /// [`ServiceOptions::http_metrics`] is set and the bind succeeded
    /// (resolves an ephemeral port).
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        lock(&self.http).as_ref().map(crate::http::HttpSidecar::addr)
    }

    /// The registry's observability hub — for local exposition (the
    /// repl's `:metrics`, dashboards) without a wire round-trip.
    pub fn obs(&self) -> &Arc<taco_obs::Obs> {
        &self.svc_obs.hub
    }

    /// Registers a workbook under `name` (case-insensitive, must be
    /// unused); `auth` = the token clients must present to open it.
    /// Spawns the workbook's writer thread.
    pub fn add_workbook(
        &self,
        name: &str,
        wb: Workbook,
        auth: Option<&str>,
    ) -> Result<(), ServiceError> {
        self.register(name, auth, Backing::Plain(wb))
    }

    /// Registers a WAL-backed workbook: edits are batch-appended to its
    /// log, `Save` folds the log into the snapshot file.
    pub fn add_persistent(
        &self,
        name: &str,
        pw: PersistentWorkbook,
        auth: Option<&str>,
    ) -> Result<(), ServiceError> {
        self.register(name, auth, Backing::Persistent(pw))
    }

    fn register(
        &self,
        name: &str,
        auth: Option<&str>,
        mut backing: Backing,
    ) -> Result<(), ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::BadRequest("empty workbook name".into()));
        }
        backing.attach_obs(&self.svc_obs.hub, name);
        let key = name.to_ascii_lowercase();
        let shared = Arc::new(BookShared {
            snapshot: RwLock::new(Arc::new(Snapshot::build(backing.workbook()))),
            stats: Counters::default(),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
        });
        let (tx, rx) = channel();
        let mut books = write_lock(&self.books);
        if books.contains_key(&key) {
            return Err(ServiceError::BadRequest(format!("workbook {name:?} already registered")));
        }
        let worker_shared = Arc::clone(&shared);
        let worker_opts = self.opts.clone();
        let worker_obs = Arc::clone(&self.svc_obs);
        let worker = std::thread::Builder::new()
            .name(format!("taco-writer-{key}"))
            .spawn(move || worker_loop(rx, backing, worker_shared, worker_opts, worker_obs))
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        books.insert(
            key,
            Arc::new(BookHandle {
                auth: auth.map(str::to_string),
                shared,
                tx: Mutex::new(tx),
                worker: Mutex::new(Some(worker)),
            }),
        );
        Ok(())
    }

    /// The current snapshot of a workbook (diagnostics, tests).
    pub fn snapshot(&self, workbook: &str) -> Option<Arc<Snapshot>> {
        let handle = self.handle(&workbook.to_ascii_lowercase())?;
        let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
        Some(snap)
    }

    /// Write-queue barrier: waits until every write queued before this
    /// call has been applied (and recalculated). Returns `false` when the
    /// workbook is unknown or its worker is gone.
    pub fn quiesce(&self, workbook: &str) -> bool {
        let Some(handle) = self.handle(&workbook.to_ascii_lowercase()) else { return false };
        // A barrier waits as long as it takes — no deadline here.
        matches!(self.recalc(&handle, None, None, false), Response::Recalced { .. })
    }

    /// Test hook: queues raw edit records on `workbook`'s writer back to
    /// back — so they coalesce into one batch, and so `AddSheet`, which no
    /// request carries, reaches the write path — and returns the replies
    /// in order (none for an unknown workbook).
    #[doc(hidden)]
    pub fn submit_edits(&self, workbook: &str, records: Vec<EditRecord>) -> Vec<Response> {
        let Some(handle) = self.handle(&workbook.to_ascii_lowercase()) else { return Vec::new() };
        let tx = lock(&handle.tx);
        let pending: Vec<Receiver<Response>> = records
            .into_iter()
            .map(|rec| {
                let (reply, rx) = channel();
                let op = WriteOp::Edit(rec);
                let _ = tx.send(WorkerMsg::Write { op, ctx: TraceContext::NONE, reply });
                rx
            })
            .collect();
        drop(tx);
        let gone = || Response::Err(ServiceError::ShuttingDown);
        pending.into_iter().map(|rx| rx.recv().unwrap_or_else(|_| gone())).collect()
    }

    /// Closes a session (idempotent — closing an unknown token is a
    /// no-op, so transports can clean up unconditionally).
    pub fn close_session(&self, token: u64) {
        let count = {
            let mut sessions = lock(&self.sessions);
            sessions.remove(&token);
            sessions.len()
        };
        self.svc_obs.sessions.set(count as i64);
    }

    /// Open sessions across all workbooks.
    pub fn session_count(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Stops accepting requests, drains every worker, and joins the
    /// writer threads (persistent workbooks get a final WAL fsync).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::SeqCst);
        if let Some(http) = lock(&self.http).take() {
            http.shutdown();
        }
        let handles: Vec<Arc<BookHandle>> = read_lock(&self.books).values().cloned().collect();
        for handle in handles {
            let _ = handle.send(WorkerMsg::Shutdown);
            if let Some(worker) = lock(&handle.worker).take() {
                let _ = worker.join();
            }
        }
        lock(&self.sessions).clear();
        self.svc_obs.sessions.set(0);
    }

    fn handle(&self, key: &str) -> Option<Arc<BookHandle>> {
        read_lock(&self.books).get(key).cloned()
    }

    /// Resolves a token to its session and workbook handle.
    fn resolve(&self, token: u64) -> Result<(Arc<Session>, Arc<BookHandle>), ServiceError> {
        let session = lock(&self.sessions).get(&token).cloned().ok_or(ServiceError::NoSession)?;
        let handle = self.handle(&session.workbook).ok_or(ServiceError::NoSession)?;
        Ok((session, handle))
    }

    /// Resolves token + sheet name to the handle and the sheet's dense
    /// index, enforcing the session scope.
    fn resolve_sheet(
        &self,
        token: u64,
        sheet: &str,
    ) -> Result<(Arc<Session>, Arc<BookHandle>, u32), ServiceError> {
        let (session, handle) = self.resolve(token)?;
        session.check(sheet)?;
        let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
        let idx =
            snap.sheet_index(sheet).ok_or_else(|| ServiceError::NoSuchSheet(sheet.to_string()))?;
        Ok((session, handle, idx as u32))
    }

    /// Executes one request — the single entry point both transports
    /// share. Never panics; every failure is a [`Response::Err`].
    pub fn execute(&self, req: Request) -> Response {
        self.execute_traced(req, None, 0)
    }

    /// [`Registry::execute`] with wire context: `wire_ctx` is the trace
    /// context a traced request wrapper carried (the request span becomes
    /// its child, so server-side spans hang off the caller's tree) and
    /// `payload_len` the wire payload size recorded on the request span.
    pub fn execute_traced(
        &self,
        req: Request,
        wire_ctx: Option<TraceContext>,
        payload_len: u64,
    ) -> Response {
        if self.down.load(Ordering::SeqCst) {
            return Response::Err(ServiceError::ShuttingDown);
        }
        let tag = req.tag();
        let start_ns = self.svc_obs.tracer.now_ns();
        let ctx = self.svc_obs.request_ctx(wire_ctx);
        // The request context stays ambient for the dispatch below:
        // spans recorded on this thread nest under it, and worker
        // messages capture it explicitly for cross-thread work.
        let _guard = ctx.enter();
        let resp = match self.try_execute(req) {
            Ok(resp) => resp,
            Err(e) => Response::Err(e),
        };
        if let Response::Err(e) = &resp {
            self.note_refusal(e);
        }
        self.svc_obs.on_request(tag, start_ns, ctx, payload_len);
        resp
    }

    /// Counts a refusal on the hub — where both `Metrics` and `Stats`
    /// read it from.
    fn note_refusal(&self, e: &ServiceError) {
        let o = &self.svc_obs;
        match e {
            ServiceError::AuthFailed => o.auth_failures.inc(),
            ServiceError::OutOfScope(_) => o.scope_denials.inc(),
            ServiceError::Busy => o.busy_rejected.inc(),
            ServiceError::DeadlineExceeded => o.deadline_expired.inc(),
            _ => {}
        }
    }

    /// Counts a connection refused at the acceptor's limit (the server's
    /// Busy path never reaches [`Registry::execute`]).
    pub(crate) fn note_busy_rejection(&self) {
        self.note_refusal(&ServiceError::Busy);
    }

    /// Publishes the server's live connection count to the hub gauge.
    pub(crate) fn note_connections(&self, n: i64) {
        self.svc_obs.connections.set(n);
    }

    fn try_execute(&self, req: Request) -> Result<Response, ServiceError> {
        match req {
            Request::Open { workbook, auth, scope } => self.open(&workbook, auth, scope),
            Request::Close { token } => {
                self.close_session(token);
                Ok(Response::Closed)
            }
            Request::SetValue { token, sheet, cell, value } => self.write(token, &sheet, |sid| {
                Ok(WriteOp::Edit(EditRecord::SetValue { sheet: sid, cell, value }))
            }),
            Request::SetFormula { token, sheet, cell, src } => self.write(token, &sheet, |sid| {
                // Pre-validate so coalesced batches stay failure-free and
                // the client gets the parse error, not a batch index.
                Template::parse(&src)
                    .map_err(|e| ServiceError::BadRequest(format!("formula: {e}")))?;
                Ok(WriteOp::Edit(EditRecord::SetFormula { sheet: sid, cell, src }))
            }),
            Request::Autofill { token, sheet, src, targets } => {
                self.write(token, &sheet, |sid| Ok(WriteOp::Autofill { sheet: sid, src, targets }))
            }
            Request::ClearRange { token, sheet, range } => self.write(token, &sheet, |sid| {
                Ok(WriteOp::Edit(EditRecord::ClearRange { sheet: sid, range }))
            }),
            Request::InsertRows { token, sheet, at, n } => {
                self.structural(token, &sheet, StructuralOp::InsertRows { at, n })
            }
            Request::DeleteRows { token, sheet, at, n } => {
                self.structural(token, &sheet, StructuralOp::DeleteRows { at, n })
            }
            Request::InsertCols { token, sheet, at, n } => {
                self.structural(token, &sheet, StructuralOp::InsertCols { at, n })
            }
            Request::DeleteCols { token, sheet, at, n } => {
                self.structural(token, &sheet, StructuralOp::DeleteCols { at, n })
            }
            Request::Get { token, sheet, cell } => {
                let (_, handle, sid) = self.resolve_sheet(token, &sheet)?;
                let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
                Ok(Response::Value(snap.value(sid as usize, cell)))
            }
            Request::GetRange { token, sheet, range } => {
                let (_, handle, sid) = self.resolve_sheet(token, &sheet)?;
                let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
                Ok(Response::Cells(snap.cells_in(sid as usize, range)))
            }
            Request::Dependents { token, sheet, range } => {
                let (session, handle, sid) = self.resolve_sheet(token, &sheet)?;
                let resp = handle.ask(self.opts.deadline, |reply| WorkerMsg::Graph {
                    dependents: true,
                    sheet: sid,
                    range,
                    ctx: TraceContext::current(),
                    reply,
                });
                Ok(filter_scoped(resp, &session))
            }
            Request::Precedents { token, sheet, range } => {
                let (session, handle, sid) = self.resolve_sheet(token, &sheet)?;
                let resp = handle.ask(self.opts.deadline, |reply| WorkerMsg::Graph {
                    dependents: false,
                    sheet: sid,
                    range,
                    ctx: TraceContext::current(),
                    reply,
                });
                Ok(filter_scoped(resp, &session))
            }
            Request::DirtyCount { token } => {
                let (_, handle) = self.resolve(token)?;
                let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
                Ok(Response::Count(snap.dirty))
            }
            Request::Recalc { token } => {
                let (_, handle) = self.resolve(token)?;
                Ok(self.recalc(&handle, self.opts.deadline, None, false))
            }
            Request::RecalcRange { token, sheet, range } => {
                let (_, handle, sid) = self.resolve_sheet(token, &sheet)?;
                Ok(self.recalc(&handle, self.opts.deadline, Some((sid, range)), false))
            }
            Request::GetRangeFresh { token, sheet, range } => {
                let (_, handle, sid) = self.resolve_sheet(token, &sheet)?;
                Ok(self.recalc(&handle, self.opts.deadline, Some((sid, range)), true))
            }
            Request::Save { token } => {
                let (_, handle) = self.resolve(token)?;
                Ok(handle.ask(self.opts.deadline, |reply| WorkerMsg::Save {
                    ctx: TraceContext::current(),
                    reply,
                }))
            }
            Request::Stats { token } => {
                let (_, handle) = self.resolve(token)?;
                let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
                let stats = &handle.shared.stats;
                Ok(Response::Stats(ServiceStats {
                    epoch: snap.epoch,
                    sheets: snap.sheet_names().len() as u64,
                    cells: snap.cells_total,
                    dirty: snap.dirty,
                    graph_edges: snap.graph_edges,
                    cross_edges: snap.cross_edges,
                    edits: stats.edits.load(Ordering::Relaxed),
                    batches: stats.batches.load(Ordering::Relaxed),
                    recalcs: stats.recalcs.load(Ordering::Relaxed),
                    coalesced: stats.coalesced.load(Ordering::Relaxed),
                    sessions: self.session_count() as u64,
                    busy_rejected: self.svc_obs.busy_rejected.value(),
                    auth_failures: self.svc_obs.auth_failures.value(),
                    scope_denials: self.svc_obs.scope_denials.value(),
                    degraded: u64::from(handle.shared.is_degraded()),
                    deadline_expired: self.svc_obs.deadline_expired.value(),
                }))
            }
            Request::Metrics { token } => {
                let _ = self.resolve(token)?;
                Ok(Response::Metrics(Box::new(self.svc_obs.hub.snapshot())))
            }
            Request::TraceDump { token } => {
                let _ = self.resolve(token)?;
                Ok(Response::Traces(Box::new(self.svc_obs.tracer.dump())))
            }
        }
    }

    /// Queues one write to the workbook's writer and waits for its reply.
    /// `op` builds the write from the resolved sheet id, and may still
    /// refuse it (an unparsable formula) — after session, scope and sheet
    /// have been checked, so those refusals come first.
    fn write(
        &self,
        token: u64,
        sheet: &str,
        op: impl FnOnce(u32) -> Result<WriteOp, ServiceError>,
    ) -> Result<Response, ServiceError> {
        let (_, handle, sid) = self.resolve_sheet(token, sheet)?;
        let op = op(sid)?;
        Ok(handle.ask(self.opts.deadline, |reply| WorkerMsg::Write {
            op,
            ctx: TraceContext::current(),
            reply,
        }))
    }

    /// Asks the workbook's writer for one recalculation pass (see
    /// [`WorkerMsg::Recalc`]) and waits for its reply.
    fn recalc(
        &self,
        handle: &BookHandle,
        deadline: Option<std::time::Duration>,
        viewport: Option<(u32, Range)>,
        fetch: bool,
    ) -> Response {
        handle.ask(deadline, |reply| WorkerMsg::Recalc {
            viewport,
            fetch,
            ctx: TraceContext::current(),
            reply,
        })
    }

    /// Queues a structural edit (row/column insert or delete). Scope is
    /// enforced against the *edited* sheet; the workbook-wide reference
    /// rewrite it triggers is part of the edit's semantics, not a separate
    /// access.
    fn structural(
        &self,
        token: u64,
        sheet: &str,
        op: StructuralOp,
    ) -> Result<Response, ServiceError> {
        self.write(token, sheet, |sid| Ok(WriteOp::Edit(EditRecord::Structural { sheet: sid, op })))
    }

    fn open(
        &self,
        workbook: &str,
        auth: Option<String>,
        scope: Option<Vec<String>>,
    ) -> Result<Response, ServiceError> {
        let key = workbook.to_ascii_lowercase();
        let handle =
            self.handle(&key).ok_or_else(|| ServiceError::NoSuchWorkbook(workbook.to_string()))?;
        if handle.auth.as_deref() != auth.as_deref() {
            return Err(ServiceError::AuthFailed);
        }
        let snap = Arc::clone(&read_lock(&handle.shared.snapshot));
        if let Some(unknown) = scope.iter().flatten().find(|n| snap.sheet_index(n).is_none()) {
            return Err(ServiceError::NoSuchSheet(unknown.clone()));
        }
        let session = Session::new(key, scope);
        let visible: Vec<String> =
            snap.sheet_names().into_iter().filter(|s| session.allows(s)).collect();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let token = SessionToken::mint(seq, self.token_seed).0;
        let count = {
            let mut sessions = lock(&self.sessions);
            sessions.insert(token, Arc::new(session));
            sessions.len()
        };
        self.svc_obs.sessions.set(count as i64);
        Ok(Response::Opened { token, sheets: visible, epoch: snap.epoch })
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Applies the session's sheet scope to a `Ranges` response.
fn filter_scoped(resp: Response, session: &Session) -> Response {
    match resp {
        Response::Ranges(ranges) => Response::Ranges(session.filter_ranges(ranges)),
        other => other,
    }
}

// ---- the worker ---------------------------------------------------------

/// Publishes `wb`'s next epoch under a `snapshot.publish` span (ambient
/// parent: the request or batch being served). Payload word: the pages
/// copied.
fn publish(shared: &BookShared, wobs: &ServiceObs, wb: &Workbook) -> u64 {
    let start_ns = wobs.tracer.now_ns();
    let prev = Arc::clone(&read_lock(&shared.snapshot));
    let (next, copied) = Snapshot::successor(Some(&prev), wb);
    let epoch = next.epoch;
    *write_lock(&shared.snapshot) = Arc::new(next);
    wobs.tracer.record_since("snapshot.publish", SpanCat::Publish, start_ns, copied as u64, 0);
    wobs.pages_copied.add(copied as u64);
    epoch
}

/// Enters the degraded state (fleet gauge kept in sync); `reason`
/// reaches refused clients verbatim in the typed error.
fn degrade(shared: &BookShared, wobs: &ServiceObs, reason: String) {
    if shared.degrade(reason) {
        wobs.degraded_books.add(1);
    }
}

/// Leaves the degraded state after a successful save.
fn heal(shared: &BookShared, wobs: &ServiceObs) {
    if shared.heal() {
        wobs.degraded_books.sub(1);
    }
}

/// Largest number of edits one batch may absorb. The first member's reply
/// waits for the whole batch to apply, recalculate and publish; the cap
/// bounds that wait when the queue never runs dry.
const MAX_BATCH: usize = 256;

fn worker_loop(
    rx: Receiver<WorkerMsg>,
    mut backing: Backing,
    shared: Arc<BookShared>,
    opts: ServiceOptions,
    wobs: Arc<ServiceObs>,
) {
    'outer: loop {
        let Ok(msg) = rx.recv() else { break };
        let mut pending = Some(msg);
        while let Some(msg) = pending.take() {
            match msg {
                WorkerMsg::Shutdown => break 'outer,
                WorkerMsg::Write { op, ctx, reply } => {
                    let mut writes = vec![(op, ctx, reply)];
                    while writes.len() < MAX_BATCH {
                        match rx.try_recv() {
                            Ok(WorkerMsg::Write { op, ctx, reply }) => {
                                writes.push((op, ctx, reply));
                            }
                            Ok(other) => {
                                pending = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    wobs.coalesce_batch.record(writes.len() as u64);
                    // The batch span parents under the first member's
                    // request; every other member gets a link span in
                    // its own trace carrying the batch's span id, so
                    // each request's tree reaches the batch it rode in.
                    let tracer = &wobs.tracer;
                    let mut batch_guard =
                        tracer.span_guard_under("worker.batch", SpanCat::Request, writes[0].1);
                    let now = tracer.now_ns();
                    for (_, mctx, _) in writes.iter().skip(1) {
                        tracer.record_at(
                            "worker.coalesced",
                            SpanCat::Request,
                            tracer.child_of(*mctx),
                            now,
                            0,
                            batch_guard.context().span_id,
                            0,
                        );
                    }
                    // Recorded at drop (inside `apply_writes`, before
                    // replies go out — the batch span must close before
                    // any member request span can).
                    batch_guard.a = writes.len() as u64;
                    apply_writes(&mut backing, &shared, &opts, &wobs, batch_guard, writes);
                }
                WorkerMsg::Graph { dependents, sheet, range, ctx, reply } => {
                    let _span = ctx.enter();
                    let wb = backing.workbook_mut();
                    let resp = if (sheet as usize) >= wb.sheet_count() {
                        Response::Err(ServiceError::NoSuchSheet(format!("#{sheet}")))
                    } else {
                        let sid = SheetId(sheet as usize);
                        let found = if dependents {
                            wb.find_dependents(sid, range)
                        } else {
                            wb.find_precedents(sid, range)
                        };
                        Response::Ranges(
                            found
                                .into_iter()
                                .map(|(s, r)| (wb.sheet_name(s).to_string(), r))
                                .collect(),
                        )
                    };
                    let _ = reply.send(resp);
                }
                // Recalculated values are derivable, so nothing is
                // logged: both backings go straight to the workbook.
                WorkerMsg::Recalc { viewport, fetch, ctx, reply } => {
                    let _span = ctx.enter();
                    let wb = backing.workbook_mut();
                    let evaluated = match viewport {
                        None => Ok(wb.recalculate(opts.recalc_mode)),
                        Some((sheet, range)) => wb
                            .recalc_demand(SheetId(sheet as usize), range)
                            .map_err(|_| ServiceError::NoSuchSheet(format!("#{sheet}"))),
                    };
                    let resp = match evaluated {
                        Err(e) => Response::Err(e),
                        Ok(evaluated) => {
                            shared.stats.recalcs.fetch_add(1, Ordering::Relaxed);
                            let epoch = publish(&shared, &wobs, wb);
                            match viewport.filter(|_| fetch) {
                                Some((sheet, range)) => {
                                    let snap = Arc::clone(&read_lock(&shared.snapshot));
                                    Response::Cells(snap.cells_in(sheet as usize, range))
                                }
                                None => Response::Recalced { evaluated: evaluated as u64, epoch },
                            }
                        }
                    };
                    let _ = reply.send(resp);
                }
                WorkerMsg::Save { ctx, reply } => {
                    let _span = ctx.enter();
                    let resp = match &mut backing {
                        Backing::Plain(_) => Response::Err(ServiceError::NotPersistent),
                        Backing::Persistent(p) => match p.compact() {
                            Ok(()) => {
                                // The snapshot now reflects the full live
                                // state and the log is empty: a prior WAL
                                // failure is healed.
                                heal(&shared, &wobs);
                                Response::Saved { wal_records: p.wal_record_count() }
                            }
                            Err(e) => {
                                // A failed snapshot rewrite degrades the
                                // workbook just like a failed WAL append:
                                // the disk can no longer be trusted to
                                // absorb further writes.
                                degrade(&shared, &wobs, format!("snapshot save failed: {e}"));
                                Response::Err(shared.degraded_error())
                            }
                        },
                    };
                    let _ = reply.send(resp);
                }
            }
        }
    }
    // Clean exit: make queued durability real before the thread dies.
    if let Backing::Persistent(p) = &mut backing {
        let _ = p.sync();
    }
}

/// Applies `records` as one batch ([`Backing::apply_batch`]: one
/// dependents query, one durability decision) and pushes one result per record, in
/// order. Failure discipline (cold paths — requests are pre-validated):
///
/// - an **apply**-stage failure applied and routed only the prefix: the
///   failing record reports its error and the suffix goes round again,
///   so every edit gets a true result;
/// - a **log**-stage failure means the edits are live in memory but the
///   WAL is short: nothing may be re-applied (double-apply) or appended
///   (a hole in the log), so the records the log does not hold are
///   answered with a typed [`ServiceError::Degraded`] and the degraded
///   state rejects further writes until `Save` heals the log by
///   rewriting the snapshot from the live state.
fn apply_records(
    backing: &mut Backing,
    shared: &BookShared,
    wobs: &ServiceObs,
    mut records: &[EditRecord],
    results: &mut Vec<Result<u64, ServiceError>>,
) {
    use taco_engine::BatchStage;
    while !records.is_empty() {
        let failed = match backing.apply_batch(records) {
            Ok(receipt) => {
                let dirty = receipt.dirty.len() as u64;
                results.extend(records.iter().map(|_| Ok(dirty)));
                return;
            }
            Err(failed) => failed,
        };
        results.extend(records[..failed.index].iter().map(|_| Ok(0)));
        records = &records[failed.index..];
        match failed.stage {
            BatchStage::Log => {
                degrade(shared, wobs, format!("wal append failed: {}", failed.error));
                results.extend(records.iter().map(|_| Err(shared.degraded_error())));
                return;
            }
            BatchStage::Apply => {
                results.push(Err(ServiceError::BadRequest(failed.error.to_string())));
                records = &records[1..];
            }
        }
    }
}

/// Applies one drained run of writes: consecutive edits in one batch,
/// each autofill as the batch of `SetFormula` records it stands for (it
/// breaks the run, because its source formula must see the records
/// before it), then one recalculation and one publication. All replies
/// carry the epoch of the snapshot published at the end; see
/// [`apply_records`] for what a failed record answers.
fn apply_writes(
    backing: &mut Backing,
    shared: &Arc<BookShared>,
    opts: &ServiceOptions,
    wobs: &ServiceObs,
    batch_guard: taco_obs::SpanGuard,
    writes: Vec<(WriteOp, TraceContext, Sender<Response>)>,
) {
    // The ops move into their batches; each gets one result, in order,
    // answered once the new epoch is known.
    let (ops, replies): (Vec<WriteOp>, Vec<Sender<Response>>) =
        writes.into_iter().map(|(op, _, reply)| (op, reply)).unzip();
    let mut results: Vec<Result<u64, ServiceError>> = Vec::with_capacity(ops.len());
    let mut ops = ops.into_iter().peekable();
    while let Some(op) = ops.next() {
        if shared.is_degraded() {
            results.push(Err(shared.degraded_error()));
            continue;
        }
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        match op {
            WriteOp::Edit(first) => {
                let mut records = vec![first];
                while let Some(WriteOp::Edit(rec)) =
                    ops.next_if(|next| matches!(next, WriteOp::Edit(_)))
                {
                    records.push(rec);
                }
                shared.stats.edits.fetch_add(records.len() as u64, Ordering::Relaxed);
                if records.len() > 1 {
                    shared.stats.coalesced.fetch_add(records.len() as u64, Ordering::Relaxed);
                }
                apply_records(backing, shared, wobs, &records, &mut results);
            }
            WriteOp::Autofill { sheet, src, targets } => {
                shared.stats.edits.fetch_add(1, Ordering::Relaxed);
                let wb = backing.workbook();
                let records = if (sheet as usize) >= wb.sheet_count() {
                    Err(ServiceError::NoSuchSheet(format!("#{sheet}")))
                } else {
                    wb.autofill_records(SheetId(sheet as usize), src, targets)
                        .map_err(|e| ServiceError::BadRequest(format!("autofill: {e}")))
                };
                // One request, one answer: the first record that failed,
                // else the fill's routing count.
                results.push(records.and_then(|records| {
                    let mut each = Vec::with_capacity(records.len());
                    apply_records(backing, shared, wobs, &records, &mut each);
                    each.into_iter().try_fold(0, |_, result| result)
                }));
            }
        }
    }
    // One recalculation for everything the run dirtied, then one
    // publication, then the replies (which carry the new epoch).
    backing.workbook_mut().recalculate(opts.recalc_mode);
    shared.stats.recalcs.fetch_add(1, Ordering::Relaxed);
    let epoch = publish(shared, wobs, backing.workbook());
    // Close the batch span before any reply: a member request's root
    // span (recorded when its client sees the reply) must fully contain
    // the batch it rode in.
    drop(batch_guard);
    for (reply, result) in replies.into_iter().zip(results) {
        let resp = match result {
            Ok(dirty) => Response::Applied { epoch, dirty },
            Err(e) => Response::Err(e),
        };
        let _ = reply.send(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    fn demo_registry() -> Registry {
        let mut wb = Workbook::with_taco();
        let data = wb.add_sheet("Data").unwrap();
        wb.add_sheet("Secret").unwrap();
        for row in 1..=4u32 {
            wb.set_value(data, Cell::new(1, row), Value::Number(f64::from(row)));
        }
        wb.set_formula(data, c("B1"), "=SUM(A1:A4)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let reg = Registry::new(ServiceOptions::default());
        reg.add_workbook("Demo", wb, Some("pw")).unwrap();
        reg
    }

    fn open(reg: &Registry, auth: Option<&str>, scope: Option<Vec<String>>) -> Response {
        reg.execute(Request::Open {
            workbook: "demo".into(),
            auth: auth.map(str::to_string),
            scope,
        })
    }

    #[test]
    fn open_requires_matching_auth() {
        let reg = demo_registry();
        assert!(matches!(open(&reg, None, None), Response::Err(ServiceError::AuthFailed)));
        assert!(matches!(open(&reg, Some("wrong"), None), Response::Err(ServiceError::AuthFailed)));
        let Response::Opened { sheets, .. } = open(&reg, Some("pw"), None) else {
            panic!("open must succeed with the right auth");
        };
        assert_eq!(sheets, vec!["Data".to_string(), "Secret".to_string()]);
    }

    #[test]
    fn writes_apply_and_reads_see_published_epochs() {
        let reg = demo_registry();
        let Response::Opened { token, epoch, .. } = open(&reg, Some("pw"), None) else {
            panic!("open");
        };
        let resp = reg.execute(Request::SetValue {
            token,
            sheet: "Data".into(),
            cell: c("A1"),
            value: Value::Number(100.0),
        });
        let Response::Applied { epoch: e2, .. } = resp else { panic!("applied: {resp:?}") };
        assert!(e2 > epoch);
        // The write's batch recalculated before publishing: the read
        // sees the new SUM immediately.
        let resp = reg.execute(Request::Get { token, sheet: "Data".into(), cell: c("B1") });
        assert_eq!(resp, Response::Value(Value::Number(109.0)));
    }

    #[test]
    fn scope_restricts_sheets_and_results() {
        let reg = demo_registry();
        let Response::Opened { token, sheets, .. } =
            open(&reg, Some("pw"), Some(vec!["Data".into()]))
        else {
            panic!("open");
        };
        assert_eq!(sheets, vec!["Data".to_string()]);
        let resp = reg.execute(Request::Get { token, sheet: "Secret".into(), cell: c("A1") });
        assert!(matches!(resp, Response::Err(ServiceError::OutOfScope(_))), "{resp:?}");
        // Unknown scope sheet fails at open.
        assert!(matches!(
            open(&reg, Some("pw"), Some(vec!["Nope".into()])),
            Response::Err(ServiceError::NoSuchSheet(_))
        ));
    }

    #[test]
    fn queries_route_through_the_worker() {
        let reg = demo_registry();
        let Response::Opened { token, .. } = open(&reg, Some("pw"), None) else { panic!() };
        let resp = reg.execute(Request::Dependents {
            token,
            sheet: "Data".into(),
            range: Range::cell(c("A2")),
        });
        let Response::Ranges(ranges) = resp else { panic!("{resp:?}") };
        assert!(ranges.iter().any(|(s, r)| s == "Data" && r.contains_cell(c("B1"))));
        let resp = reg.execute(Request::Precedents {
            token,
            sheet: "Data".into(),
            range: Range::cell(c("B1")),
        });
        let Response::Ranges(ranges) = resp else { panic!("{resp:?}") };
        assert!(!ranges.is_empty());
    }

    #[test]
    fn stale_token_and_closed_sessions_are_typed() {
        let reg = demo_registry();
        let resp = reg.execute(Request::DirtyCount { token: 12345 });
        assert!(matches!(resp, Response::Err(ServiceError::NoSession)));
        let Response::Opened { token, .. } = open(&reg, Some("pw"), None) else { panic!() };
        assert_eq!(reg.execute(Request::Close { token }), Response::Closed);
        let resp = reg.execute(Request::DirtyCount { token });
        assert!(matches!(resp, Response::Err(ServiceError::NoSession)));
    }

    #[test]
    fn save_on_plain_workbook_is_not_persistent() {
        let reg = demo_registry();
        let Response::Opened { token, .. } = open(&reg, Some("pw"), None) else { panic!() };
        let resp = reg.execute(Request::Save { token });
        assert!(matches!(resp, Response::Err(ServiceError::NotPersistent)));
    }

    #[test]
    fn shutdown_refuses_new_requests_and_joins_workers() {
        let reg = demo_registry();
        let Response::Opened { token, .. } = open(&reg, Some("pw"), None) else { panic!() };
        reg.shutdown();
        let resp = reg.execute(Request::DirtyCount { token });
        assert!(matches!(resp, Response::Err(ServiceError::ShuttingDown)));
        reg.shutdown(); // idempotent
    }

    /// A 2 048-row sheet (eight pages a column): data in A, a window sum
    /// in B.
    fn tall_registry() -> (Registry, u64) {
        let mut wb = Workbook::with_taco();
        let main = wb.add_sheet("Main").unwrap();
        wb.add_sheet("Other").unwrap();
        for row in 1..=2048u32 {
            wb.set_value(main, Cell::new(1, row), Value::Number(f64::from(row)));
            wb.set_formula(main, Cell::new(2, row), &format!("SUM(A{row}:A{})", row + 1)).unwrap();
        }
        wb.recalculate(RecalcMode::Serial);
        let reg = Registry::new(ServiceOptions::default());
        reg.add_workbook("Demo", wb, None).unwrap();
        let Response::Opened { token, .. } = open(&reg, None, None) else { panic!("open") };
        (reg, token)
    }

    fn pages_copied(reg: &Registry) -> u64 {
        reg.obs().snapshot().counter("taco_snapshot_pages_copied_total").unwrap()
    }

    /// A sheet's pages, by their first cell.
    fn pages(snap: &Snapshot, sheet: usize) -> BTreeMap<Cell, Arc<[Option<Value>]>> {
        snap.sheets[sheet].values.pages().map(|(first, page)| (first, Arc::clone(page))).collect()
    }

    #[test]
    fn snapshot_shares_untouched_sheets_and_pages() {
        let (reg, token) = tall_registry();
        let set = |cell: &str, v: f64| {
            let value = Value::Number(v);
            let resp = reg.execute(Request::SetValue {
                token,
                sheet: "Main".into(),
                cell: c(cell),
                value,
            });
            assert!(matches!(resp, Response::Applied { .. }), "{resp:?}");
            reg.snapshot("demo").unwrap()
        };
        let before = reg.snapshot("demo").unwrap();
        assert_eq!(pages(&before, 0).len(), 2 * 2048 / 256);
        let copied = pages_copied(&reg);
        // C1000 has no dependents: one cell written, on a page of its own.
        let after = set("C1000", 1.0);
        assert!(after.epoch > before.epoch);
        assert_eq!(pages_copied(&reg) - copied, 1, "a one-cell edit copies one page");
        assert_eq!(after.cells_total, before.cells_total + 1);
        // "Other" was untouched: it is shared whole.
        assert!(Arc::ptr_eq(&after.sheets[1].values, &before.sheets[1].values));
        // On the edited sheet every page but the new one is shared.
        let (a, b) = (pages(&after, 0), pages(&before, 0));
        assert_eq!(
            a.keys().filter(|first| !b.contains_key(first)).collect::<Vec<_>>(),
            [&c("C769")]
        );
        for (first, page) in &b {
            assert!(Arc::ptr_eq(page, &a[first]), "page at {first}");
        }
        // Sheet names are epoch-shared, not re-cloned.
        for (sa, sb) in after.sheets.iter().zip(before.sheets.iter()) {
            assert!(Arc::ptr_eq(&sa.name, &sb.name), "sheet names are epoch-shared");
        }
        // Written again in place: that page is copied, no other.
        let again = set("C1000", 2.0);
        assert_eq!(pages_copied(&reg) - copied, 2);
        for (first, page) in &pages(&again, 0) {
            assert_eq!(Arc::ptr_eq(page, &a[first]), *first != c("C769"), "page at {first}");
        }
        // A1 feeds B1 only (B's window is A{r}:A{r+1}): the first page of
        // each column.
        let last = set("A1", -1.0);
        assert_eq!(pages_copied(&reg) - copied, 4);
        assert_eq!(last.value(0, c("B1")), Value::Number(1.0));
        assert_eq!(last.value(0, c("C1000")), Value::Number(2.0));
    }

    /// Page-for-page equality, not just equal reads: a successor must be
    /// indistinguishable from a full build.
    fn assert_same(got: &Snapshot, want: &Snapshot) {
        assert_eq!(got.sheet_names(), want.sheet_names());
        for (i, (g, w)) in got.sheets.iter().zip(&want.sheets).enumerate() {
            assert_eq!(g.values.len(), w.values.len(), "sheet {}", g.name);
            let (g, w) = (pages(got, i), pages(want, i));
            assert!(g
                .iter()
                .map(|(first, page)| (first, &page[..]))
                .eq(w.iter().map(|(first, page)| (first, &page[..]))));
            assert!(g.values().all(|page| page.iter().any(Option::is_some)), "no empty page");
        }
        let counters = |s: &Snapshot| (s.dirty, s.cells_total, s.graph_edges, s.cross_edges);
        assert_eq!(counters(got), counters(want));
    }

    /// Applies `records` the way the worker does and returns the successor
    /// of `prev`, checked against a full build, and the pages it copied.
    fn successor(prev: &Snapshot, wb: &mut Workbook, records: &[EditRecord]) -> (Snapshot, usize) {
        wb.apply_batch(records).unwrap();
        wb.recalculate(RecalcMode::Serial);
        let (next, copied) = Snapshot::successor(Some(prev), wb);
        assert_same(&next, &Snapshot::build(wb));
        (next, copied)
    }

    fn set(cell: &str, v: f64) -> EditRecord {
        EditRecord::SetValue { sheet: 0, cell: c(cell), value: Value::Number(v) }
    }

    fn clear(range: &str) -> EditRecord {
        EditRecord::ClearRange { sheet: 0, range: Range::parse_a1(range).unwrap() }
    }

    #[test]
    fn cells_in_walks_pages_in_row_major_order() {
        // Columns A..C at rows 1..=40, 250..=262 (across the boundary of
        // the first two pages) and 800..=810 (the fourth page); E only at
        // rows 600..=605 (the third page, absent from A..C).
        let mut wb = Workbook::with_taco();
        let id = wb.add_sheet("S").unwrap();
        for row in (1..=40u32).chain(250..=262).chain(800..=810) {
            for col in 1..=3u32 {
                wb.set_value(id, Cell::new(col, row), Value::Number(f64::from(row * 10 + col)));
            }
        }
        for row in 600..=605u32 {
            wb.set_value(id, Cell::new(5, row), Value::Number(f64::from(row)));
        }
        let snap = Snapshot::build(&wb);
        let firsts: Vec<String> = pages(&snap, 0).keys().map(Cell::to_string).collect();
        let want = ["A1", "A257", "A769", "B1", "B257", "B769", "C1", "C257", "C769", "E513"];
        assert_eq!(firsts, want);
        let brute = |range: Range| {
            let mut cells: Vec<(Cell, Value)> = wb
                .sheet(id)
                .cells()
                .filter(|(c, _)| range.contains_cell(*c))
                .map(|(c, k)| (c, k.value().clone()))
                .collect();
            cells.sort_unstable_by_key(|(c, _)| (c.row, c.col));
            cells
        };
        for (what, range) in [
            ("inside one page", "A5:C9"),
            ("across a page boundary", "B250:C262"),
            ("across pages some columns lack", "A30:E900"),
            ("blank rows of a held page", "A64:C95"),
            ("a page only a column outside holds", "A520:C700"),
            ("one column of every page", "B1:B2000"),
            ("exceeds the sheet", "A1:Z5000"),
            ("past the last page", "A4000:C4100"),
            ("columns with no cells", "D1:D2000"),
        ]
        .map(|(what, a1)| (what, Range::parse_a1(a1).unwrap()))
        .into_iter()
        .chain([("the whole grid", Range::from_coords(1, 1, u32::MAX, u32::MAX))])
        {
            assert_eq!(snap.cells_in(0, range), brute(range), "{what}: {range}");
        }
        assert_eq!(snap.value(0, c("B35")), Value::Number(352.0));
        assert_eq!(snap.value(0, c("B70")), Value::Empty);
        assert_eq!(snap.value(0, c("B600")), Value::Empty);
        assert_eq!(snap.value(0, c("E600")), Value::Number(600.0));
        assert_eq!(snap.value(0, c("D35")), Value::Empty);
        assert!(snap.cells_in(7, Range::parse_a1("A1:C9").unwrap()).is_empty());
    }

    #[test]
    fn publishing_tracks_pages_and_cell_counts_exactly() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("S").unwrap();
        let snap = Snapshot::build(&wb);
        assert_eq!(snap.cells_total, 0);
        // First cells of three pages, one far down.
        let (snap, copied) =
            successor(&snap, &mut wb, &[set("A1", 1.0), set("B40", 2.0), set("A1000", 3.0)]);
        assert_eq!((snap.cells_total, copied, pages(&snap, 0).len()), (3, 3, 3));
        // Overwrite in place: no count change, one page copied.
        let (snap, copied) = successor(&snap, &mut wb, &[set("B40", 5.0)]);
        assert_eq!((snap.cells_total, copied), (3, 1));
        assert_eq!(snap.value(0, c("B40")), Value::Number(5.0));
        // Clearing the last cell of a page drops the page itself.
        let (snap, copied) = successor(&snap, &mut wb, &[clear("A33:Z64")]);
        assert_eq!((snap.cells_total, copied, pages(&snap, 0).len()), (2, 0, 2));
        // A clear over blank rows and missing pages copies nothing, and
        // the sheet is shared whole.
        let before = Arc::clone(&snap.sheets[0].values);
        let (snap, copied) = successor(&snap, &mut wb, &[clear("A100:Z900")]);
        assert_eq!(copied, 0);
        assert!(Arc::ptr_eq(&before, &snap.sheets[0].values));
        // Set, clear and re-set of one cell inside one batch; a formula
        // whose value arrives through the recalculation.
        let formula =
            EditRecord::SetFormula { sheet: 0, cell: c("C2"), src: "SUM(A1:A1000)".into() };
        let (snap, _) =
            successor(&snap, &mut wb, &[set("D7", 1.0), clear("D1:D9"), set("D7", 2.0), formula]);
        assert_eq!(snap.cells_total, 4);
        assert_eq!(snap.value(0, c("C2")), Value::Number(4.0));
        // Clearing everything drops every page.
        let (snap, _) = successor(&snap, &mut wb, &[clear("A1:Z2000")]);
        assert_eq!(snap.cells_total, 0);
        assert!(pages(&snap, 0).is_empty());
    }

    /// One drained run through `apply_writes` itself — edits, a fill
    /// between them, a refused record and a refused fill — with no thread
    /// to make coalescing a matter of timing: one publication, replies in
    /// request order, and the published epoch equal to a full rebuild.
    #[test]
    fn a_coalesced_run_answers_in_order_and_publishes_a_full_rebuild() {
        let mut wb = Workbook::with_taco();
        let id = wb.add_sheet("S").unwrap();
        for row in 1..=80u32 {
            wb.set_value(id, Cell::new(1, row), Value::Number(f64::from(row)));
        }
        wb.set_formula(id, c("B1"), "SUM(A1:A3)").unwrap();
        wb.recalculate(RecalcMode::Serial);
        let shared = Arc::new(BookShared {
            snapshot: RwLock::new(Arc::new(Snapshot::build(&wb))),
            stats: Counters::default(),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
        });
        let mut backing = Backing::Plain(wb);
        let (tx, rx) = channel();
        let fill = |src: &str, targets: &str| WriteOp::Autofill {
            sheet: 0,
            src: c(src),
            targets: Range::parse_a1(targets).unwrap(),
        };
        let formula = EditRecord::SetFormula { sheet: 0, cell: c("C70"), src: "A70*2".into() };
        let nowhere = EditRecord::SetValue { sheet: 9, cell: c("A1"), value: Value::Empty };
        let ops = vec![
            WriteOp::Edit(set("A2", 100.0)),
            WriteOp::Edit(formula),
            fill("B1", "B2:B40"),
            WriteOp::Edit(clear("A30:A35")),
            WriteOp::Edit(nowhere),
            WriteOp::Edit(set("A77", 7.0)),
            fill("A1", "D1:D9"),
        ];
        let writes: Vec<_> =
            ops.into_iter().map(|op| (op, TraceContext::NONE, tx.clone())).collect();
        let wobs = ServiceObs::new(taco_obs::Obs::new_default());
        let batch = wobs.tracer.span_guard_under("worker.batch", SpanCat::Request, writes[0].1);
        apply_writes(&mut backing, &shared, &ServiceOptions::default(), &wobs, batch, writes);
        let replies: Vec<Response> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let applied: Vec<bool> =
            replies.iter().map(|r| matches!(r, Response::Applied { epoch: 1, .. })).collect();
        assert_eq!(applied, [true, true, true, true, false, true, false], "{replies:?}");
        assert!(matches!(&replies[4], Response::Err(ServiceError::BadRequest(_))));
        assert!(matches!(&replies[6], Response::Err(ServiceError::BadRequest(_))));
        let published = Arc::clone(&read_lock(&shared.snapshot));
        assert_same(&published, &Snapshot::build(backing.workbook()));
        assert_eq!(published.value(0, c("B1")), Value::Number(104.0));
        assert_eq!(published.value(0, c("B29")), Value::Number(29.0));
        assert_eq!(published.value(0, c("A77")), Value::Number(7.0));
        assert_eq!(shared.stats.recalcs.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.coalesced.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn structural_edits_and_new_sheets_rebuild_whole() {
        let mut wb = Workbook::with_taco();
        wb.add_sheet("S").unwrap();
        let snap = Snapshot::build(&wb);
        let total = EditRecord::SetFormula { sheet: 0, cell: c("B1"), src: "SUM(A1:A99)".into() };
        let remote = EditRecord::SetFormula { sheet: 0, cell: c("C1"), src: "Late!A1+A40".into() };
        let (snap, _) =
            successor(&snap, &mut wb, &[set("A1", 1.0), set("A40", 2.0), total, remote]);
        // Inserted rows move cells: the store is rebuilt, every page copied.
        let insert =
            EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 2, n: 40 } };
        let (snap, copied) = successor(&snap, &mut wb, &[insert]);
        assert_eq!(copied, pages(&snap, 0).len());
        assert_eq!(snap.value(0, c("A80")), Value::Number(2.0));
        // A sheet the previous epoch lacks appears whole; the formula
        // waiting for it is re-evaluated on the old sheet.
        let late = EditRecord::AddSheet { name: "Late".into() };
        let fill = EditRecord::SetValue { sheet: 1, cell: c("A1"), value: Value::Number(10.0) };
        let (snap, _) = successor(&snap, &mut wb, &[late, fill]);
        assert_eq!(snap.sheet_index("late"), Some(1));
        assert_eq!(snap.value(0, c("C1")), Value::Number(12.0));
    }
}
