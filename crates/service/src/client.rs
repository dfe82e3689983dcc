//! Typed clients: one [`Client`] surface over two transports — direct
//! in-process calls against a shared [`Registry`], or the framed TCP
//! wire. The load generator and the benchmark drive both through the same
//! [`Transport`] trait, so in-process vs TCP comparisons exercise
//! identical request streams.

use crate::protocol::{Request, Response, RetryClass, ServiceStats};
use crate::registry::Registry;
use crate::server::{read_handshake, write_handshake};
use crate::ServiceError;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_obs::{MetricsSnapshot, TraceContext, TraceDump};
use taco_store::{read_frame, write_frame, DEFAULT_MAX_FRAME};

/// A way to deliver a [`Request`] and receive its [`Response`].
pub trait Transport {
    /// One request/response exchange.
    fn call(&mut self, req: Request) -> Result<Response, ServiceError> {
        self.call_traced(req, None)
    }

    /// One exchange carrying an optional client trace context — the
    /// server parents the request's root span under it, so every request
    /// a client sends with the same context lands in one trace. The
    /// in-process transport passes it straight through; the TCP
    /// transport wraps the request in the traced wire extension.
    fn call_traced(
        &mut self,
        req: Request,
        ctx: Option<TraceContext>,
    ) -> Result<Response, ServiceError>;

    /// Re-establishes the underlying channel after a failure: the TCP
    /// transport re-dials and re-handshakes its remembered address.
    /// Transports with nothing to re-establish (in-process) succeed as a
    /// no-op.
    fn reconnect(&mut self) -> Result<(), ServiceError> {
        Ok(())
    }
}

/// The in-process transport: requests execute on the calling thread
/// against a shared registry (reads hit the epoch snapshot directly;
/// writes enqueue on the workbook's writer and block for the reply).
pub struct InProc {
    registry: Arc<Registry>,
}

impl InProc {
    /// A transport over `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        InProc { registry }
    }
}

impl Transport for InProc {
    fn call_traced(
        &mut self,
        req: Request,
        ctx: Option<TraceContext>,
    ) -> Result<Response, ServiceError> {
        Ok(self.registry.execute_traced(req, ctx, 0))
    }
}

/// The TCP transport: one connection, one frame per request and reply.
pub struct Tcp {
    stream: TcpStream,
    /// Replies are read through a buffer over a clone of `stream`, so a
    /// frame is one `read`, not one per length byte. It belongs to this
    /// connection alone: a reconnect replaces it with the stream.
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    max_frame: u64,
}

impl Tcp {
    /// Connects and handshakes.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServiceError> {
        let mut stream = TcpStream::connect(addr)?;
        write_handshake(&mut stream)?;
        read_handshake(&mut stream)?;
        let addr = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Tcp { stream, reader, addr, max_frame: DEFAULT_MAX_FRAME })
    }
}

impl Transport for Tcp {
    fn call_traced(
        &mut self,
        req: Request,
        ctx: Option<TraceContext>,
    ) -> Result<Response, ServiceError> {
        let bytes = match ctx {
            Some(ctx) => req.encode_traced(ctx),
            None => req.encode(),
        };
        write_frame(&mut self.stream, &bytes)?;
        let payload = read_frame(&mut self.reader, self.max_frame)?;
        Ok(Response::decode(&payload)?)
    }

    fn reconnect(&mut self) -> Result<(), ServiceError> {
        *self = Tcp { max_frame: self.max_frame, ..Tcp::connect(self.addr)? };
        Ok(())
    }
}

/// Jittered exponential backoff for transient service failures
/// (connection drops, `Busy` refusals, expired deadlines). Attached to a
/// [`Client`] with [`Client::set_retry`]; retries apply **only to
/// idempotent requests** — a write whose fate is unknown (the connection
/// died mid-exchange, or its deadline expired) is never re-sent, because
/// the first copy may have applied.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` tries).
    pub max_retries: u32,
    /// First backoff; doubles per retry up to [`RetryPolicy::max_delay`].
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream (each delay is drawn
    /// uniformly from `[delay/2, delay]` so synchronized clients spread
    /// out).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            seed: 0x5eed_cafe,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based), jittered by
    /// `state` (advanced by the caller between draws).
    fn delay(&self, attempt: u32, state: u64) -> Duration {
        let exp = self.base_delay.saturating_mul(2u32.saturating_pow(attempt));
        let capped = exp.min(self.max_delay).as_nanos() as u64;
        let jittered = capped / 2 + splitmix64(state) % (capped / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// SplitMix64 — the same tiny deterministic generator the workload crate
/// uses; good enough to decorrelate retry timing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A typed session client over any transport. Open a workbook first;
/// every other method carries the session token automatically.
pub struct Client<T: Transport> {
    transport: T,
    token: Option<u64>,
    sheets: Vec<String>,
    trace: Option<TraceContext>,
    retry: Option<RetryPolicy>,
    /// Jitter stream state; advanced per backoff draw.
    jitter: u64,
    /// Retries attempted over the client's lifetime (reconnects and
    /// re-sends, not first attempts).
    retries: u64,
    /// The last successful `open`'s arguments, remembered so the retry
    /// path can re-open after the server closed our sessions (it does so
    /// whenever a connection dies).
    open_params: Option<(String, Option<String>, Option<Vec<String>>)>,
}

/// [`Client`] over the in-process transport.
pub type InProcClient = Client<InProc>;
/// [`Client`] over the TCP transport.
pub type TcpClient = Client<Tcp>;

impl InProcClient {
    /// An in-process client against a shared registry.
    pub fn in_process(registry: Arc<Registry>) -> Self {
        Client::over(InProc::new(registry))
    }
}

impl TcpClient {
    /// Connects a TCP client.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServiceError> {
        Ok(Client::over(Tcp::connect(addr)?))
    }
}

impl<T: Transport> Client<T> {
    /// Wraps a transport.
    pub fn over(transport: T) -> Self {
        Client {
            transport,
            token: None,
            sheets: Vec::new(),
            trace: None,
            retry: None,
            jitter: 0,
            retries: 0,
            open_params: None,
        }
    }

    /// Turns on automatic retry: transient failures (`Busy`, a dropped
    /// connection, an expired deadline) on **idempotent** requests are
    /// retried with jittered exponential backoff, transparently
    /// reconnecting and re-opening the session as needed. Mutations are
    /// never retried — their first attempt may have applied.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.jitter = policy.seed;
        self.retry = Some(policy);
    }

    /// Retries this client has attempted (0 while every call succeeds on
    /// its first try).
    pub fn retries_attempted(&self) -> u64 {
        self.retries
    }

    /// Attaches a sticky trace context: every subsequent request travels
    /// with it, so the server parents each request's span tree under one
    /// client-chosen trace id (fetch the assembled tree later with
    /// [`Client::trace_dump`]). Pass any tracer's `new_root()` result,
    /// or build ids by hand. It stays for the client's lifetime.
    pub fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = Some(ctx);
    }

    /// The session's visible sheets (filled by [`Client::open`]).
    pub fn sheets(&self) -> &[String] {
        &self.sheets
    }

    /// The raw session token, once open.
    pub fn token(&self) -> Option<u64> {
        self.token
    }

    fn need_token(&self) -> Result<u64, ServiceError> {
        self.token.ok_or(ServiceError::NoSession)
    }

    fn call(&mut self, req: Request) -> Result<Response, ServiceError> {
        let Some(policy) = self.retry else {
            return match self.transport.call_traced(req, self.trace)? {
                Response::Err(e) => Err(e),
                resp => Ok(resp),
            };
        };
        let retryable = req.is_idempotent();
        let mut req = req;
        let mut attempt: u32 = 0;
        loop {
            // `dead` distinguishes a transport failure (the connection
            // cannot be trusted any more) from a well-formed error reply
            // (the stream is still in sync).
            let (err, dead) = match self.transport.call_traced(req.clone(), self.trace) {
                Ok(Response::Err(e)) => (e, false),
                Ok(resp) => return Ok(resp),
                Err(e) => (e, true),
            };
            if !retryable || attempt >= policy.max_retries {
                return Err(err);
            }
            // Which failures are worth another try — and what repair
            // each needs first:
            //  - a dead transport (I/O error, torn frame): reconnect,
            //    and re-open because the server closed our sessions
            //    when the connection died;
            //  - `Busy`: the server answered and will close the socket
            //    next, so same treatment after a backoff;
            //  - `NoSession` with remembered open parameters: the
            //    session evaporated server-side — re-open on the live
            //    connection;
            //  - `DeadlineExceeded`: the workbook's writer is slow, not
            //    gone — just back off and re-ask.
            // Everything else (auth, scope, bad requests, degraded
            // workbooks) is deterministic: retrying cannot help.
            let reconnect = match &err {
                _ if dead => true,
                ServiceError::Busy => true,
                ServiceError::DeadlineExceeded => false,
                ServiceError::NoSession if self.open_params.is_some() => false,
                _ => return Err(err),
            };
            self.retries += 1;
            self.jitter = splitmix64(self.jitter);
            std::thread::sleep(policy.delay(attempt, self.jitter));
            attempt += 1;
            if reconnect && self.transport.reconnect().is_err() {
                // Still unreachable: burn this attempt and loop — the
                // next call_traced fails fast and backs off again.
                continue;
            }
            // A fresh connection (or an evaporated session) needs a new
            // session before the retried request can carry its token.
            let needs_reopen = (reconnect || matches!(err, ServiceError::NoSession))
                && req.retry_class() != RetryClass::Session;
            if needs_reopen && self.reopen().is_ok() {
                if let (Some(slot), Some(token)) = (req.token_mut(), self.token) {
                    *slot = token;
                }
            }
        }
    }

    /// Re-opens the remembered session after a reconnect (single
    /// attempt; the retry loop provides the repetition).
    fn reopen(&mut self) -> Result<(), ServiceError> {
        let (workbook, auth, scope) = self.open_params.clone().ok_or(ServiceError::NoSession)?;
        match self.transport.call_traced(Request::Open { workbook, auth, scope }, self.trace)? {
            Response::Opened { token, sheets, .. } => {
                self.token = Some(token);
                self.sheets = sheets;
                Ok(())
            }
            Response::Err(e) => Err(e),
            _ => Err(ServiceError::Protocol("expected Opened")),
        }
    }

    /// Opens a session; returns the visible sheet names.
    pub fn open(
        &mut self,
        workbook: &str,
        auth: Option<&str>,
        scope: Option<&[&str]>,
    ) -> Result<Vec<String>, ServiceError> {
        let params = (
            workbook.to_string(),
            auth.map(str::to_string),
            scope.map(|s| s.iter().map(|n| n.to_string()).collect::<Vec<String>>()),
        );
        let resp = self.call(Request::Open {
            workbook: params.0.clone(),
            auth: params.1.clone(),
            scope: params.2.clone(),
        })?;
        match resp {
            Response::Opened { token, sheets, .. } => {
                self.token = Some(token);
                self.sheets = sheets.clone();
                self.open_params = Some(params);
                Ok(sheets)
            }
            _ => Err(ServiceError::Protocol("expected Opened")),
        }
    }

    /// Closes the session (idempotent).
    pub fn close(&mut self) -> Result<(), ServiceError> {
        let Some(token) = self.token.take() else { return Ok(()) };
        self.sheets.clear();
        self.open_params = None;
        match self.call(Request::Close { token })? {
            Response::Closed => Ok(()),
            _ => Err(ServiceError::Protocol("expected Closed")),
        }
    }

    fn applied(&mut self, req: Request) -> Result<u64, ServiceError> {
        match self.call(req)? {
            Response::Applied { dirty, .. } => Ok(dirty),
            _ => Err(ServiceError::Protocol("expected Applied")),
        }
    }

    /// Sets a pure value; returns the dirty ranges its batch routed.
    pub fn set_value(
        &mut self,
        sheet: &str,
        cell: Cell,
        value: Value,
    ) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::SetValue { token, sheet: sheet.to_string(), cell, value })
    }

    /// Sets a formula (leading `=` optional).
    pub fn set_formula(&mut self, sheet: &str, cell: Cell, src: &str) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::SetFormula {
            token,
            sheet: sheet.to_string(),
            cell,
            src: src.to_string(),
        })
    }

    /// Autofills the formula at `src` over `targets`.
    pub fn autofill(
        &mut self,
        sheet: &str,
        src: Cell,
        targets: Range,
    ) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::Autofill { token, sheet: sheet.to_string(), src, targets })
    }

    /// Clears every cell in `range`.
    pub fn clear_range(&mut self, sheet: &str, range: Range) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::ClearRange { token, sheet: sheet.to_string(), range })
    }

    /// Inserts `n` rows before row `at` — a workbook-wide structural
    /// edit: formulas on *other* sheets that reference this one are
    /// rewritten too.
    pub fn insert_rows(&mut self, sheet: &str, at: u32, n: u32) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::InsertRows { token, sheet: sheet.to_string(), at, n })
    }

    /// Deletes the rows `[at, at + n)`; references wholly inside the
    /// deleted band become `#REF!`, everywhere in the workbook.
    pub fn delete_rows(&mut self, sheet: &str, at: u32, n: u32) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::DeleteRows { token, sheet: sheet.to_string(), at, n })
    }

    /// Inserts `n` columns before column `at`; see
    /// [`Client::insert_rows`].
    pub fn insert_cols(&mut self, sheet: &str, at: u32, n: u32) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::InsertCols { token, sheet: sheet.to_string(), at, n })
    }

    /// Deletes the columns `[at, at + n)`; see [`Client::delete_rows`].
    pub fn delete_cols(&mut self, sheet: &str, at: u32, n: u32) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        self.applied(Request::DeleteCols { token, sheet: sheet.to_string(), at, n })
    }

    /// Reads one cell (snapshot read — never blocks on writers).
    pub fn get(&mut self, sheet: &str, cell: Cell) -> Result<Value, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::Get { token, sheet: sheet.to_string(), cell })? {
            Response::Value(v) => Ok(v),
            _ => Err(ServiceError::Protocol("expected Value")),
        }
    }

    /// Reads every non-empty cell in `range` (snapshot read).
    pub fn get_range(
        &mut self,
        sheet: &str,
        range: Range,
    ) -> Result<Vec<(Cell, Value)>, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::GetRange { token, sheet: sheet.to_string(), range })? {
            Response::Cells(cells) => Ok(cells),
            _ => Err(ServiceError::Protocol("expected Cells")),
        }
    }

    fn ranges(&mut self, req: Request) -> Result<Vec<(String, Range)>, ServiceError> {
        match self.call(req)? {
            Response::Ranges(r) => Ok(r),
            _ => Err(ServiceError::Protocol("expected Ranges")),
        }
    }

    /// All transitive dependents of `sheet!range`, across sheets.
    pub fn dependents(
        &mut self,
        sheet: &str,
        range: Range,
    ) -> Result<Vec<(String, Range)>, ServiceError> {
        let token = self.need_token()?;
        self.ranges(Request::Dependents { token, sheet: sheet.to_string(), range })
    }

    /// All transitive precedents of `sheet!range`, across sheets.
    pub fn precedents(
        &mut self,
        sheet: &str,
        range: Range,
    ) -> Result<Vec<(String, Range)>, ServiceError> {
        let token = self.need_token()?;
        self.ranges(Request::Precedents { token, sheet: sheet.to_string(), range })
    }

    /// Cells awaiting recalculation (snapshot read).
    pub fn dirty_count(&mut self) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::DirtyCount { token })? {
            Response::Count(n) => Ok(n),
            _ => Err(ServiceError::Protocol("expected Count")),
        }
    }

    /// Forces a recalculation; doubles as the write-queue barrier (it
    /// runs after every write queued before it). Returns the number of
    /// cells evaluated.
    pub fn recalc(&mut self) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::Recalc { token })? {
            Response::Recalced { evaluated, .. } => Ok(evaluated),
            _ => Err(ServiceError::Protocol("expected Recalced")),
        }
    }

    /// Demand-driven recalculation: evaluates only the transitive dirty
    /// precedents of `sheet!range`, leaving every other dirty cell lazily
    /// dirty. A write-queue barrier like [`Client::recalc`]. Returns the
    /// number of cells evaluated.
    pub fn recalc_range(&mut self, sheet: &str, range: Range) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::RecalcRange { token, sheet: sheet.to_string(), range })? {
            Response::Recalced { evaluated, .. } => Ok(evaluated),
            _ => Err(ServiceError::Protocol("expected Recalced")),
        }
    }

    /// Reads every non-empty cell of `range` *after* a demand-driven
    /// recalculation of that viewport — unlike [`Client::get_range`],
    /// which reads the current snapshot as-is, the values returned here
    /// are guaranteed recalculation-fresh for the viewport.
    pub fn get_range_fresh(
        &mut self,
        sheet: &str,
        range: Range,
    ) -> Result<Vec<(Cell, Value)>, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::GetRangeFresh { token, sheet: sheet.to_string(), range })? {
            Response::Cells(cells) => Ok(cells),
            _ => Err(ServiceError::Protocol("expected Cells")),
        }
    }

    /// Folds the workbook's WAL into its snapshot file (persistent
    /// workbooks only). Returns the WAL records remaining.
    pub fn save(&mut self) -> Result<u64, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::Save { token })? {
            Response::Saved { wal_records } => Ok(wal_records),
            _ => Err(ServiceError::Protocol("expected Saved")),
        }
    }

    /// Service counters and workbook totals.
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::Stats { token })? {
            Response::Stats(s) => Ok(s),
            _ => Err(ServiceError::Protocol("expected Stats")),
        }
    }

    /// A full observability snapshot — every counter, gauge, histogram
    /// (with derived p50/p90/p99), and the slow-op log. Render it with
    /// [`MetricsSnapshot::to_prometheus`].
    ///
    /// [`MetricsSnapshot::to_prometheus`]: taco_obs::MetricsSnapshot::to_prometheus
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::Metrics { token })? {
            Response::Metrics(m) => Ok(*m),
            _ => Err(ServiceError::Protocol("expected Metrics")),
        }
    }

    /// A snapshot of the server's span rings: the recent-span ring plus
    /// the slow-request log, with full trace/span/parent ids. Walk it
    /// with [`TraceDump::children_of`] or render it with
    /// [`TraceDump::to_chrome_json`].
    ///
    /// [`TraceDump::children_of`]: taco_obs::TraceDump::children_of
    /// [`TraceDump::to_chrome_json`]: taco_obs::TraceDump::to_chrome_json
    pub fn trace_dump(&mut self) -> Result<TraceDump, ServiceError> {
        let token = self.need_token()?;
        match self.call(Request::TraceDump { token })? {
            Response::Traces(t) => Ok(*t),
            _ => Err(ServiceError::Protocol("expected Traces")),
        }
    }
}
