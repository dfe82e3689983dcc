//! The command protocol: plain-data [`Request`]/[`Response`] enums with a
//! compact binary encoding.
//!
//! The encoding reuses `taco_store`'s codec layer — LEB128 varints for
//! integers, length-prefixed UTF-8 for strings, the store's tagged value
//! and cell/range encodings — so the wire format inherits the on-disk
//! format's properties: compact, front-to-back decodable, and hardened
//! (string/list lengths are bounded before allocation, trailing bytes are
//! an error, unknown tags are typed failures, decoding never panics).
//!
//! One request or response is one frame payload ([`taco_store::frame`]);
//! framing (length prefix + CRC) is the transport's job, so the payload
//! codec here assumes an intact byte slice.

use crate::ServiceError;
use std::io::{Read, Write};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_obs::{
    GaugeValue, HistogramSnapshot, MetricValue, MetricsSnapshot, SlowSpan, SpanCat, TraceContext,
    TraceDump,
};
use taco_store::codec::{read_ivarint, write_ivarint};
use taco_store::codec::{read_string, read_uvarint, write_string, write_uvarint};
use taco_store::image::{read_cell, read_range, read_value, write_cell, write_range, write_value};
use taco_store::StoreError;

/// Upper bound for any string on the wire (sheet names, formula sources,
/// error messages).
pub const MAX_WIRE_STRING: u64 = 1 << 20;

/// Upper bound for any metric/span list in a [`Response::Metrics`]
/// payload. Checked before any allocation: an oversized declared length
/// is a typed error, not an attempted `Vec` reservation.
pub const MAX_METRICS_ENTRIES: u64 = 1 << 16;

/// One client command. Every variant after [`Request::Open`] carries the
/// session token `Open` returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Starts a session against a named workbook.
    Open {
        /// The workbook's registry name (case-insensitive).
        workbook: String,
        /// The workbook's auth token, when it requires one.
        auth: Option<String>,
        /// Restrict the session to these sheets (names); `None` = all.
        scope: Option<Vec<String>>,
    },
    /// Ends a session.
    Close {
        /// The session token.
        token: u64,
    },
    /// Sets a pure value.
    SetValue {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// Target cell.
        cell: Cell,
        /// The new value.
        value: Value,
    },
    /// Sets a formula (leading `=` optional).
    SetFormula {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// Target cell.
        cell: Cell,
        /// Formula source text.
        src: String,
    },
    /// Autofills the formula at `src` over `targets`.
    Autofill {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// The source formula cell.
        src: Cell,
        /// The fill targets.
        targets: Range,
    },
    /// Clears every cell in `range`.
    ClearRange {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// The cleared range.
        range: Range,
    },
    /// Reads one cell's value (snapshot read).
    Get {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// The cell to read.
        cell: Cell,
    },
    /// Reads every non-empty cell in `range` (snapshot read).
    GetRange {
        /// The session token.
        token: u64,
        /// Target sheet name.
        sheet: String,
        /// The range to read.
        range: Range,
    },
    /// All transitive dependents of `sheet!range`, across sheets.
    Dependents {
        /// The session token.
        token: u64,
        /// Probe sheet name.
        sheet: String,
        /// Probe range.
        range: Range,
    },
    /// All transitive precedents of `sheet!range`, across sheets.
    Precedents {
        /// The session token.
        token: u64,
        /// Probe sheet name.
        sheet: String,
        /// Probe range.
        range: Range,
    },
    /// Number of cells awaiting recalculation (snapshot read).
    DirtyCount {
        /// The session token.
        token: u64,
    },
    /// Forces a recalculation (also the write-queue barrier: it runs
    /// after every previously queued write).
    Recalc {
        /// The session token.
        token: u64,
    },
    /// Folds the workbook's WAL into a fresh snapshot (persistent
    /// workbooks only).
    Save {
        /// The session token.
        token: u64,
    },
    /// Service counters and workbook totals.
    Stats {
        /// The session token.
        token: u64,
    },
    /// Demand-driven recalculation: evaluates only the transitive dirty
    /// precedents of `sheet!range`, leaving the rest lazily dirty. A
    /// write-queue barrier like [`Request::Recalc`].
    RecalcRange {
        /// The session token.
        token: u64,
        /// Viewport sheet name.
        sheet: String,
        /// The viewport.
        range: Range,
    },
    /// Reads every non-empty cell in `range` after a demand-driven
    /// recalculation of that viewport — a "fresh" read, unlike the
    /// snapshot read [`Request::GetRange`].
    GetRangeFresh {
        /// The session token.
        token: u64,
        /// Viewport sheet name.
        sheet: String,
        /// The viewport.
        range: Range,
    },
    /// Inserts `n` rows before row `at` — a workbook-wide structural
    /// edit: references to the sheet from *other* sheets are rewritten
    /// too (full-range deletions become `#REF!`).
    InsertRows {
        /// The session token.
        token: u64,
        /// The edited sheet's name.
        sheet: String,
        /// First shifted row.
        at: u32,
        /// Rows inserted.
        n: u32,
    },
    /// Deletes the rows `[at, at + n)`; see [`Request::InsertRows`].
    DeleteRows {
        /// The session token.
        token: u64,
        /// The edited sheet's name.
        sheet: String,
        /// First deleted row.
        at: u32,
        /// Rows deleted.
        n: u32,
    },
    /// Inserts `n` columns before column `at`; see
    /// [`Request::InsertRows`].
    InsertCols {
        /// The session token.
        token: u64,
        /// The edited sheet's name.
        sheet: String,
        /// First shifted column.
        at: u32,
        /// Columns inserted.
        n: u32,
    },
    /// Deletes the columns `[at, at + n)`; see [`Request::InsertRows`].
    DeleteCols {
        /// The session token.
        token: u64,
        /// The edited sheet's name.
        sheet: String,
        /// First deleted column.
        at: u32,
        /// Columns deleted.
        n: u32,
    },
    /// A full metrics snapshot from the service's observability hub
    /// (counters, gauges, histogram quantiles, slow spans). A typed
    /// `BadRequest` when the service runs with observability disabled.
    Metrics {
        /// The session token.
        token: u64,
    },
    /// A bounded span-tree snapshot from the service's tracer: the
    /// recent-span ring plus the slow-request log (requests over the
    /// slow threshold keep their full subtree). A typed `BadRequest`
    /// when the service runs with observability disabled.
    TraceDump {
        /// The session token.
        token: u64,
    },
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session started.
    Opened {
        /// The session token to carry in subsequent requests.
        token: u64,
        /// The sheets visible to the session (scope applied).
        sheets: Vec<String>,
        /// Snapshot epoch at open time.
        epoch: u64,
    },
    /// Session ended.
    Closed,
    /// A write was applied (and recalculated) by the workbook's writer.
    Applied {
        /// Snapshot epoch after the write's batch was published.
        epoch: u64,
        /// Dirty ranges routed for the batch this write rode in.
        dirty: u64,
    },
    /// A cell value.
    Value(
        /// The value (Empty for never-written cells).
        Value,
    ),
    /// The non-empty cells of a range, sorted by (row, col).
    Cells(
        /// `(cell, value)` pairs.
        Vec<(Cell, Value)>,
    ),
    /// Query results as `(sheet name, range)` pairs.
    Ranges(
        /// The ranges, sorted by sheet then position.
        Vec<(String, Range)>,
    ),
    /// A counter (dirty count).
    Count(
        /// The count.
        u64,
    ),
    /// A recalculation ran.
    Recalced {
        /// Formula cells evaluated.
        evaluated: u64,
        /// Snapshot epoch after publication.
        epoch: u64,
    },
    /// The workbook was folded to its snapshot file.
    Saved {
        /// WAL records remaining after the fold (0 unless compaction is
        /// disabled).
        wal_records: u64,
    },
    /// Service counters.
    Stats(
        /// The counters.
        ServiceStats,
    ),
    /// A metrics snapshot ([`Request::Metrics`]).
    Metrics(
        /// The hub snapshot: counters, gauges, frozen histograms, and
        /// the slow-span log.
        Box<MetricsSnapshot>,
    ),
    /// A span-tree snapshot ([`Request::TraceDump`]).
    Traces(
        /// The recent-span ring plus the slow-request log, oldest first.
        Box<TraceDump>,
    ),
    /// The request failed.
    Err(
        /// The typed failure.
        ServiceError,
    ),
}

/// Counters returned by [`Request::Stats`]: a snapshot-consistent view of
/// one workbook plus the monotone service counters its writer maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Snapshot epoch (bumps once per published batch/recalc).
    pub epoch: u64,
    /// Sheets in the workbook.
    pub sheets: u64,
    /// Non-empty cells across all sheets (as of the snapshot).
    pub cells: u64,
    /// Cells awaiting recalculation (as of the snapshot).
    pub dirty: u64,
    /// Compressed formula-graph edges across all sheets.
    pub graph_edges: u64,
    /// Inter-sheet edges.
    pub cross_edges: u64,
    /// Edits applied since the workbook was registered.
    pub edits: u64,
    /// Write batches applied (= dirty-propagation passes for edits).
    pub batches: u64,
    /// Recalculations run.
    pub recalcs: u64,
    /// Edits that rode in a batch with at least one other edit.
    pub coalesced: u64,
    /// Sessions currently open across the whole registry.
    pub sessions: u64,
    /// Connections rejected with [`ServiceError::Busy`] at accept time.
    pub busy_rejected: u64,
    /// Opens rejected with [`ServiceError::AuthFailed`].
    pub auth_failures: u64,
    /// Requests rejected with [`ServiceError::OutOfScope`].
    pub scope_denials: u64,
    /// 1 when this workbook is currently degraded (read-only after a
    /// storage fault; heals on a successful `Save`), else 0.
    pub degraded: u64,
    /// Requests answered with [`ServiceError::DeadlineExceeded`]
    /// (registry-wide).
    pub deadline_expired: u64,
}

// ---- encoding -----------------------------------------------------------

const REQ_OPEN: u8 = 0;
const REQ_CLOSE: u8 = 1;
const REQ_SET_VALUE: u8 = 2;
const REQ_SET_FORMULA: u8 = 3;
const REQ_AUTOFILL: u8 = 4;
const REQ_CLEAR_RANGE: u8 = 5;
const REQ_GET: u8 = 6;
const REQ_GET_RANGE: u8 = 7;
const REQ_DEPENDENTS: u8 = 8;
const REQ_PRECEDENTS: u8 = 9;
const REQ_DIRTY_COUNT: u8 = 10;
const REQ_RECALC: u8 = 11;
const REQ_SAVE: u8 = 12;
const REQ_STATS: u8 = 13;
const REQ_RECALC_RANGE: u8 = 14;
const REQ_GET_RANGE_FRESH: u8 = 15;
const REQ_INSERT_ROWS: u8 = 16;
const REQ_DELETE_ROWS: u8 = 17;
const REQ_INSERT_COLS: u8 = 18;
const REQ_DELETE_COLS: u8 = 19;
const REQ_METRICS: u8 = 20;
const REQ_TRACE_DUMP: u8 = 21;
/// The traced-request wrapper tag: `22 · trace_hi · trace_lo · parent
/// span id (u64 LE each) · inner request bytes`. Not a request of its
/// own — a frame extension that propagates the client's trace context
/// so server-side spans parent under the caller's span tree.
const REQ_TRACED: u8 = 22;

/// Operation names, indexed by request tag (span labels).
pub const OP_NAMES: [&str; 22] = [
    "open",
    "close",
    "set_value",
    "set_formula",
    "autofill",
    "clear_range",
    "get",
    "get_range",
    "dependents",
    "precedents",
    "dirty_count",
    "recalc",
    "save",
    "stats",
    "recalc_range",
    "get_range_fresh",
    "insert_rows",
    "delete_rows",
    "insert_cols",
    "delete_cols",
    "metrics",
    "trace_dump",
];

/// Pre-rendered `op="..."` label strings, indexed by request tag
/// (per-operation latency histogram labels — rendered once so request
/// timing never formats).
pub const OP_LABELS: [&str; 22] = [
    "op=\"open\"",
    "op=\"close\"",
    "op=\"set_value\"",
    "op=\"set_formula\"",
    "op=\"autofill\"",
    "op=\"clear_range\"",
    "op=\"get\"",
    "op=\"get_range\"",
    "op=\"dependents\"",
    "op=\"precedents\"",
    "op=\"dirty_count\"",
    "op=\"recalc\"",
    "op=\"save\"",
    "op=\"stats\"",
    "op=\"recalc_range\"",
    "op=\"get_range_fresh\"",
    "op=\"insert_rows\"",
    "op=\"delete_rows\"",
    "op=\"insert_cols\"",
    "op=\"delete_cols\"",
    "op=\"metrics\"",
    "op=\"trace_dump\"",
];

const RESP_OPENED: u8 = 0;
const RESP_CLOSED: u8 = 1;
const RESP_APPLIED: u8 = 2;
const RESP_VALUE: u8 = 3;
const RESP_CELLS: u8 = 4;
const RESP_RANGES: u8 = 5;
const RESP_COUNT: u8 = 6;
const RESP_RECALCED: u8 = 7;
const RESP_SAVED: u8 = 8;
const RESP_STATS: u8 = 9;
const RESP_ERR: u8 = 10;
const RESP_METRICS: u8 = 11;
const RESP_TRACES: u8 = 12;

fn write_opt_string<W: Write>(w: &mut W, s: &Option<String>) -> Result<(), StoreError> {
    match s {
        None => {
            w.write_all(&[0])?;
            Ok(())
        }
        Some(s) => {
            w.write_all(&[1])?;
            write_string(w, s)
        }
    }
}

fn read_opt_string<R: Read>(r: &mut R) -> Result<Option<String>, StoreError> {
    match read_flag(r)? {
        false => Ok(None),
        true => Ok(Some(read_string(r, MAX_WIRE_STRING)?)),
    }
}

fn read_flag<R: Read>(r: &mut R) -> Result<bool, StoreError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    match b[0] {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(StoreError::Malformed("flag byte out of range")),
    }
}

fn read_wire_string<R: Read>(r: &mut R) -> Result<String, StoreError> {
    read_string(r, MAX_WIRE_STRING)
}

fn read_grid_index<R: Read>(r: &mut R) -> Result<u32, StoreError> {
    let v = read_uvarint(r)?;
    u32::try_from(v).map_err(|_| StoreError::Malformed("grid index out of range"))
}

/// Checks a declared list length against `MAX_METRICS_ENTRIES` *before*
/// any allocation happens on its behalf.
fn checked_len(n: u64) -> Result<usize, StoreError> {
    if n > MAX_METRICS_ENTRIES {
        return Err(StoreError::Malformed("metrics list length out of range"));
    }
    Ok(n as usize)
}

/// Trace/span ids are full-entropy 64-bit values, so they travel as
/// fixed 8-byte little-endian words instead of varints (which would
/// cost 10 bytes for a random id).
fn write_u64_le<W: Write>(w: &mut W, v: u64) -> Result<(), StoreError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64_le<R: Read>(r: &mut R) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_span<W: Write>(w: &mut W, sp: &SlowSpan) -> Result<(), StoreError> {
    write_string(w, &sp.name)?;
    w.write_all(&[sp.cat as u8])?;
    write_u64_le(w, sp.trace_hi)?;
    write_u64_le(w, sp.trace_lo)?;
    write_u64_le(w, sp.span_id)?;
    write_u64_le(w, sp.parent_id)?;
    write_uvarint(w, sp.start_ns)?;
    write_uvarint(w, sp.dur_ns)?;
    write_uvarint(w, sp.a)?;
    write_uvarint(w, sp.b)?;
    Ok(())
}

fn read_span<R: Read>(r: &mut R) -> Result<SlowSpan, StoreError> {
    let name = read_wire_string(r)?;
    let mut cat = [0u8; 1];
    r.read_exact(&mut cat)?;
    let cat =
        SpanCat::from_u8(cat[0]).ok_or(StoreError::Malformed("span category out of range"))?;
    Ok(SlowSpan {
        name,
        cat,
        trace_hi: read_u64_le(r)?,
        trace_lo: read_u64_le(r)?,
        span_id: read_u64_le(r)?,
        parent_id: read_u64_le(r)?,
        start_ns: read_uvarint(r)?,
        dur_ns: read_uvarint(r)?,
        a: read_uvarint(r)?,
        b: read_uvarint(r)?,
    })
}

fn write_spans<W: Write>(w: &mut W, spans: &[SlowSpan]) -> Result<(), StoreError> {
    write_uvarint(w, spans.len() as u64)?;
    for sp in spans {
        write_span(w, sp)?;
    }
    Ok(())
}

fn read_spans<R: Read>(r: &mut R) -> Result<Vec<SlowSpan>, StoreError> {
    let n = checked_len(read_uvarint(r)?)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(read_span(r)?);
    }
    Ok(spans)
}

fn write_trace_dump<W: Write>(w: &mut W, dump: &TraceDump) -> Result<(), StoreError> {
    write_spans(w, &dump.recent)?;
    write_spans(w, &dump.slow)
}

fn read_trace_dump<R: Read>(r: &mut R) -> Result<TraceDump, StoreError> {
    Ok(TraceDump { recent: read_spans(r)?, slow: read_spans(r)? })
}

fn write_metrics<W: Write>(w: &mut W, snap: &MetricsSnapshot) -> Result<(), StoreError> {
    write_uvarint(w, snap.counters.len() as u64)?;
    for c in &snap.counters {
        write_string(w, &c.name)?;
        write_string(w, &c.labels)?;
        write_uvarint(w, c.value)?;
    }
    write_uvarint(w, snap.gauges.len() as u64)?;
    for g in &snap.gauges {
        write_string(w, &g.name)?;
        write_string(w, &g.labels)?;
        write_ivarint(w, g.value)?;
    }
    write_uvarint(w, snap.histograms.len() as u64)?;
    for h in &snap.histograms {
        write_string(w, &h.name)?;
        write_string(w, &h.labels)?;
        write_uvarint(w, h.count)?;
        write_uvarint(w, h.sum)?;
        write_uvarint(w, h.buckets.len() as u64)?;
        for &(b, n) in &h.buckets {
            w.write_all(&[b])?;
            write_uvarint(w, n)?;
        }
        write_uvarint(w, h.p50)?;
        write_uvarint(w, h.p90)?;
        write_uvarint(w, h.p99)?;
    }
    write_spans(w, &snap.slow_spans)?;
    Ok(())
}

fn read_metrics<R: Read>(r: &mut R) -> Result<MetricsSnapshot, StoreError> {
    let mut snap = MetricsSnapshot::default();
    let n = checked_len(read_uvarint(r)?)?;
    snap.counters.reserve_exact(n);
    for _ in 0..n {
        snap.counters.push(MetricValue {
            name: read_wire_string(r)?,
            labels: read_wire_string(r)?,
            value: read_uvarint(r)?,
        });
    }
    let n = checked_len(read_uvarint(r)?)?;
    snap.gauges.reserve_exact(n);
    for _ in 0..n {
        snap.gauges.push(GaugeValue {
            name: read_wire_string(r)?,
            labels: read_wire_string(r)?,
            value: read_ivarint(r)?,
        });
    }
    let n = checked_len(read_uvarint(r)?)?;
    snap.histograms.reserve_exact(n);
    for _ in 0..n {
        let name = read_wire_string(r)?;
        let labels = read_wire_string(r)?;
        let count = read_uvarint(r)?;
        let sum = read_uvarint(r)?;
        let nb = read_uvarint(r)?;
        // A log₂ histogram has at most 64 buckets; anything larger is
        // malformed (and rejected before the Vec reserves).
        if nb > taco_obs::HIST_BUCKETS as u64 {
            return Err(StoreError::Malformed("histogram bucket count out of range"));
        }
        let mut buckets = Vec::with_capacity(nb as usize);
        for _ in 0..nb {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            buckets.push((b[0], read_uvarint(r)?));
        }
        let (p50, p90, p99) = (read_uvarint(r)?, read_uvarint(r)?, read_uvarint(r)?);
        snap.histograms.push(HistogramSnapshot {
            name,
            labels,
            count,
            sum,
            buckets,
            p50,
            p90,
            p99,
        });
    }
    snap.slow_spans = read_spans(r)?;
    Ok(snap)
}

impl Request {
    /// The request's wire tag (also the index into
    /// [`OP_LABELS`]).
    pub fn tag(&self) -> u8 {
        match self {
            Request::Open { .. } => REQ_OPEN,
            Request::Close { .. } => REQ_CLOSE,
            Request::SetValue { .. } => REQ_SET_VALUE,
            Request::SetFormula { .. } => REQ_SET_FORMULA,
            Request::Autofill { .. } => REQ_AUTOFILL,
            Request::ClearRange { .. } => REQ_CLEAR_RANGE,
            Request::Get { .. } => REQ_GET,
            Request::GetRange { .. } => REQ_GET_RANGE,
            Request::Dependents { .. } => REQ_DEPENDENTS,
            Request::Precedents { .. } => REQ_PRECEDENTS,
            Request::DirtyCount { .. } => REQ_DIRTY_COUNT,
            Request::Recalc { .. } => REQ_RECALC,
            Request::Save { .. } => REQ_SAVE,
            Request::Stats { .. } => REQ_STATS,
            Request::RecalcRange { .. } => REQ_RECALC_RANGE,
            Request::GetRangeFresh { .. } => REQ_GET_RANGE_FRESH,
            Request::InsertRows { .. } => REQ_INSERT_ROWS,
            Request::DeleteRows { .. } => REQ_DELETE_ROWS,
            Request::InsertCols { .. } => REQ_INSERT_COLS,
            Request::DeleteCols { .. } => REQ_DELETE_COLS,
            Request::Metrics { .. } => REQ_METRICS,
            Request::TraceDump { .. } => REQ_TRACE_DUMP,
        }
    }

    /// The request's operation name, for span labels.
    pub fn op_name(&self) -> &'static str {
        OP_NAMES[self.tag() as usize]
    }

    /// Encodes the request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let infallible: Result<(), StoreError> = (|| {
            let w = &mut out;
            match self {
                Request::Open { workbook, auth, scope } => {
                    w.push(REQ_OPEN);
                    write_string(w, workbook)?;
                    write_opt_string(w, auth)?;
                    match scope {
                        None => w.push(0),
                        Some(sheets) => {
                            w.push(1);
                            write_uvarint(w, sheets.len() as u64)?;
                            for s in sheets {
                                write_string(w, s)?;
                            }
                        }
                    }
                }
                Request::Close { token } => {
                    w.push(REQ_CLOSE);
                    write_uvarint(w, *token)?;
                }
                Request::SetValue { token, sheet, cell, value } => {
                    w.push(REQ_SET_VALUE);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_cell(w, *cell)?;
                    write_value(w, value)?;
                }
                Request::SetFormula { token, sheet, cell, src } => {
                    w.push(REQ_SET_FORMULA);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_cell(w, *cell)?;
                    write_string(w, src)?;
                }
                Request::Autofill { token, sheet, src, targets } => {
                    w.push(REQ_AUTOFILL);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_cell(w, *src)?;
                    write_range(w, *targets)?;
                }
                Request::ClearRange { token, sheet, range } => {
                    w.push(REQ_CLEAR_RANGE);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::Get { token, sheet, cell } => {
                    w.push(REQ_GET);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_cell(w, *cell)?;
                }
                Request::GetRange { token, sheet, range } => {
                    w.push(REQ_GET_RANGE);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::Dependents { token, sheet, range } => {
                    w.push(REQ_DEPENDENTS);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::Precedents { token, sheet, range } => {
                    w.push(REQ_PRECEDENTS);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::DirtyCount { token } => {
                    w.push(REQ_DIRTY_COUNT);
                    write_uvarint(w, *token)?;
                }
                Request::Recalc { token } => {
                    w.push(REQ_RECALC);
                    write_uvarint(w, *token)?;
                }
                Request::Save { token } => {
                    w.push(REQ_SAVE);
                    write_uvarint(w, *token)?;
                }
                Request::Stats { token } => {
                    w.push(REQ_STATS);
                    write_uvarint(w, *token)?;
                }
                Request::RecalcRange { token, sheet, range } => {
                    w.push(REQ_RECALC_RANGE);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::GetRangeFresh { token, sheet, range } => {
                    w.push(REQ_GET_RANGE_FRESH);
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_range(w, *range)?;
                }
                Request::InsertRows { token, sheet, at, n }
                | Request::DeleteRows { token, sheet, at, n }
                | Request::InsertCols { token, sheet, at, n }
                | Request::DeleteCols { token, sheet, at, n } => {
                    w.push(match self {
                        Request::InsertRows { .. } => REQ_INSERT_ROWS,
                        Request::DeleteRows { .. } => REQ_DELETE_ROWS,
                        Request::InsertCols { .. } => REQ_INSERT_COLS,
                        _ => REQ_DELETE_COLS,
                    });
                    write_uvarint(w, *token)?;
                    write_string(w, sheet)?;
                    write_uvarint(w, u64::from(*at))?;
                    write_uvarint(w, u64::from(*n))?;
                }
                Request::Metrics { token } => {
                    w.push(REQ_METRICS);
                    write_uvarint(w, *token)?;
                }
                Request::TraceDump { token } => {
                    w.push(REQ_TRACE_DUMP);
                    write_uvarint(w, *token)?;
                }
            }
            Ok(())
        })();
        debug_assert!(infallible.is_ok(), "Vec sinks cannot fail");
        out
    }

    /// Encodes the request wrapped in a traced-request extension
    /// carrying the caller's trace context: the server parents its
    /// request span (and everything beneath it) under `ctx`.
    pub fn encode_traced(&self, ctx: TraceContext) -> Vec<u8> {
        let inner = self.encode();
        let mut out = Vec::with_capacity(inner.len() + 25);
        out.push(REQ_TRACED);
        out.extend_from_slice(&ctx.trace_hi.to_le_bytes());
        out.extend_from_slice(&ctx.trace_lo.to_le_bytes());
        out.extend_from_slice(&ctx.span_id.to_le_bytes());
        out.extend_from_slice(&inner);
        out
    }

    /// Decodes one frame payload; trailing bytes are an error. A traced
    /// wrapper is accepted and its context discarded — use
    /// [`Request::decode_traced`] to observe it.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode_traced(bytes).map(|(_, req)| req)
    }

    /// Decodes one frame payload, surfacing the trace context when the
    /// request arrived in a traced wrapper. The carried `span_id` is the
    /// *parent* under which server-side spans should hang.
    pub fn decode_traced(mut bytes: &[u8]) -> Result<(Option<TraceContext>, Self), StoreError> {
        let r = &mut bytes;
        let mut op = [0u8; 1];
        r.read_exact(&mut op)?;
        let ctx = if op[0] == REQ_TRACED {
            let (trace_hi, trace_lo) = (read_u64_le(r)?, read_u64_le(r)?);
            let parent = read_u64_le(r)?;
            if trace_hi == 0 && trace_lo == 0 {
                return Err(StoreError::Malformed("traced wrapper with zero trace id"));
            }
            r.read_exact(&mut op)?;
            if op[0] == REQ_TRACED {
                return Err(StoreError::Malformed("nested traced wrapper"));
            }
            Some(TraceContext { trace_hi, trace_lo, span_id: parent, parent_id: 0 })
        } else {
            None
        };
        let req = match op[0] {
            REQ_OPEN => {
                let workbook = read_wire_string(r)?;
                let auth = read_opt_string(r)?;
                let scope = match read_flag(r)? {
                    false => None,
                    true => {
                        let n = read_uvarint(r)?;
                        let mut sheets = Vec::new();
                        for _ in 0..n {
                            sheets.push(read_wire_string(r)?);
                        }
                        Some(sheets)
                    }
                };
                Request::Open { workbook, auth, scope }
            }
            REQ_CLOSE => Request::Close { token: read_uvarint(r)? },
            REQ_SET_VALUE => Request::SetValue {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                cell: read_cell(r)?,
                value: read_value(r)?,
            },
            REQ_SET_FORMULA => Request::SetFormula {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                cell: read_cell(r)?,
                src: read_wire_string(r)?,
            },
            REQ_AUTOFILL => Request::Autofill {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                src: read_cell(r)?,
                targets: read_range(r)?,
            },
            REQ_CLEAR_RANGE => Request::ClearRange {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            REQ_GET => Request::Get {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                cell: read_cell(r)?,
            },
            REQ_GET_RANGE => Request::GetRange {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            REQ_DEPENDENTS => Request::Dependents {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            REQ_PRECEDENTS => Request::Precedents {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            REQ_DIRTY_COUNT => Request::DirtyCount { token: read_uvarint(r)? },
            REQ_RECALC => Request::Recalc { token: read_uvarint(r)? },
            REQ_SAVE => Request::Save { token: read_uvarint(r)? },
            REQ_STATS => Request::Stats { token: read_uvarint(r)? },
            REQ_RECALC_RANGE => Request::RecalcRange {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            REQ_GET_RANGE_FRESH => Request::GetRangeFresh {
                token: read_uvarint(r)?,
                sheet: read_wire_string(r)?,
                range: read_range(r)?,
            },
            op @ (REQ_INSERT_ROWS | REQ_DELETE_ROWS | REQ_INSERT_COLS | REQ_DELETE_COLS) => {
                let token = read_uvarint(r)?;
                let sheet = read_wire_string(r)?;
                let at = read_grid_index(r)?;
                let n = read_grid_index(r)?;
                match op {
                    REQ_INSERT_ROWS => Request::InsertRows { token, sheet, at, n },
                    REQ_DELETE_ROWS => Request::DeleteRows { token, sheet, at, n },
                    REQ_INSERT_COLS => Request::InsertCols { token, sheet, at, n },
                    _ => Request::DeleteCols { token, sheet, at, n },
                }
            }
            REQ_METRICS => Request::Metrics { token: read_uvarint(r)? },
            REQ_TRACE_DUMP => Request::TraceDump { token: read_uvarint(r)? },
            _ => return Err(StoreError::Malformed("unknown request op")),
        };
        if !r.is_empty() {
            return Err(StoreError::Malformed("trailing bytes in request"));
        }
        Ok((ctx, req))
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let infallible: Result<(), StoreError> = (|| {
            let w = &mut out;
            match self {
                Response::Opened { token, sheets, epoch } => {
                    w.push(RESP_OPENED);
                    write_uvarint(w, *token)?;
                    write_uvarint(w, *epoch)?;
                    write_uvarint(w, sheets.len() as u64)?;
                    for s in sheets {
                        write_string(w, s)?;
                    }
                }
                Response::Closed => w.push(RESP_CLOSED),
                Response::Applied { epoch, dirty } => {
                    w.push(RESP_APPLIED);
                    write_uvarint(w, *epoch)?;
                    write_uvarint(w, *dirty)?;
                }
                Response::Value(v) => {
                    w.push(RESP_VALUE);
                    write_value(w, v)?;
                }
                Response::Cells(cells) => {
                    w.push(RESP_CELLS);
                    write_uvarint(w, cells.len() as u64)?;
                    for (c, v) in cells {
                        write_cell(w, *c)?;
                        write_value(w, v)?;
                    }
                }
                Response::Ranges(ranges) => {
                    w.push(RESP_RANGES);
                    write_uvarint(w, ranges.len() as u64)?;
                    for (sheet, range) in ranges {
                        write_string(w, sheet)?;
                        write_range(w, *range)?;
                    }
                }
                Response::Count(n) => {
                    w.push(RESP_COUNT);
                    write_uvarint(w, *n)?;
                }
                Response::Recalced { evaluated, epoch } => {
                    w.push(RESP_RECALCED);
                    write_uvarint(w, *evaluated)?;
                    write_uvarint(w, *epoch)?;
                }
                Response::Saved { wal_records } => {
                    w.push(RESP_SAVED);
                    write_uvarint(w, *wal_records)?;
                }
                Response::Stats(s) => {
                    w.push(RESP_STATS);
                    for field in [
                        s.epoch,
                        s.sheets,
                        s.cells,
                        s.dirty,
                        s.graph_edges,
                        s.cross_edges,
                        s.edits,
                        s.batches,
                        s.recalcs,
                        s.coalesced,
                        s.sessions,
                        s.busy_rejected,
                        s.auth_failures,
                        s.scope_denials,
                        s.degraded,
                        s.deadline_expired,
                    ] {
                        write_uvarint(w, field)?;
                    }
                }
                Response::Metrics(snap) => {
                    w.push(RESP_METRICS);
                    write_metrics(w, snap)?;
                }
                Response::Traces(dump) => {
                    w.push(RESP_TRACES);
                    write_trace_dump(w, dump)?;
                }
                Response::Err(e) => {
                    w.push(RESP_ERR);
                    encode_error(w, e)?;
                }
            }
            Ok(())
        })();
        debug_assert!(infallible.is_ok(), "Vec sinks cannot fail");
        out
    }

    /// Decodes one frame payload; trailing bytes are an error.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, StoreError> {
        let r = &mut bytes;
        let mut op = [0u8; 1];
        r.read_exact(&mut op)?;
        let resp = match op[0] {
            RESP_OPENED => {
                let token = read_uvarint(r)?;
                let epoch = read_uvarint(r)?;
                let n = read_uvarint(r)?;
                let mut sheets = Vec::new();
                for _ in 0..n {
                    sheets.push(read_wire_string(r)?);
                }
                Response::Opened { token, sheets, epoch }
            }
            RESP_CLOSED => Response::Closed,
            RESP_APPLIED => Response::Applied { epoch: read_uvarint(r)?, dirty: read_uvarint(r)? },
            RESP_VALUE => Response::Value(read_value(r)?),
            RESP_CELLS => {
                let n = read_uvarint(r)?;
                let mut cells = Vec::new();
                for _ in 0..n {
                    let c = read_cell(r)?;
                    cells.push((c, read_value(r)?));
                }
                Response::Cells(cells)
            }
            RESP_RANGES => {
                let n = read_uvarint(r)?;
                let mut ranges = Vec::new();
                for _ in 0..n {
                    let sheet = read_wire_string(r)?;
                    ranges.push((sheet, read_range(r)?));
                }
                Response::Ranges(ranges)
            }
            RESP_COUNT => Response::Count(read_uvarint(r)?),
            RESP_RECALCED => {
                Response::Recalced { evaluated: read_uvarint(r)?, epoch: read_uvarint(r)? }
            }
            RESP_SAVED => Response::Saved { wal_records: read_uvarint(r)? },
            RESP_STATS => {
                let mut fields = [0u64; 16];
                for f in &mut fields {
                    *f = read_uvarint(r)?;
                }
                Response::Stats(ServiceStats {
                    epoch: fields[0],
                    sheets: fields[1],
                    cells: fields[2],
                    dirty: fields[3],
                    graph_edges: fields[4],
                    cross_edges: fields[5],
                    edits: fields[6],
                    batches: fields[7],
                    recalcs: fields[8],
                    coalesced: fields[9],
                    sessions: fields[10],
                    busy_rejected: fields[11],
                    auth_failures: fields[12],
                    scope_denials: fields[13],
                    degraded: fields[14],
                    deadline_expired: fields[15],
                })
            }
            RESP_METRICS => Response::Metrics(Box::new(read_metrics(r)?)),
            RESP_TRACES => Response::Traces(Box::new(read_trace_dump(r)?)),
            RESP_ERR => Response::Err(decode_error(r)?),
            _ => return Err(StoreError::Malformed("unknown response op")),
        };
        if !r.is_empty() {
            return Err(StoreError::Malformed("trailing bytes in response"));
        }
        Ok(resp)
    }
}

const ERR_NO_WORKBOOK: u8 = 0;
const ERR_AUTH: u8 = 1;
const ERR_NO_SESSION: u8 = 2;
const ERR_NO_SHEET: u8 = 3;
const ERR_SCOPE: u8 = 4;
const ERR_BAD_REQUEST: u8 = 5;
const ERR_NOT_PERSISTENT: u8 = 6;
const ERR_BUSY: u8 = 7;
const ERR_SHUTDOWN: u8 = 8;
const ERR_WIRE: u8 = 9;
const ERR_IO: u8 = 10;
const ERR_PROTOCOL: u8 = 11;
const ERR_DEGRADED: u8 = 12;
const ERR_DEADLINE: u8 = 13;

fn encode_error<W: Write>(w: &mut W, e: &ServiceError) -> Result<(), StoreError> {
    let (code, msg): (u8, String) = match e {
        ServiceError::NoSuchWorkbook(n) => (ERR_NO_WORKBOOK, n.clone()),
        ServiceError::AuthFailed => (ERR_AUTH, String::new()),
        ServiceError::NoSession => (ERR_NO_SESSION, String::new()),
        ServiceError::NoSuchSheet(n) => (ERR_NO_SHEET, n.clone()),
        ServiceError::OutOfScope(n) => (ERR_SCOPE, n.clone()),
        ServiceError::BadRequest(why) => (ERR_BAD_REQUEST, why.clone()),
        ServiceError::NotPersistent => (ERR_NOT_PERSISTENT, String::new()),
        ServiceError::Degraded(why) => (ERR_DEGRADED, why.clone()),
        ServiceError::DeadlineExceeded => (ERR_DEADLINE, String::new()),
        ServiceError::Busy => (ERR_BUSY, String::new()),
        ServiceError::ShuttingDown => (ERR_SHUTDOWN, String::new()),
        ServiceError::Wire(e) => (ERR_WIRE, e.to_string()),
        ServiceError::Io(why) => (ERR_IO, why.clone()),
        ServiceError::Protocol(what) => (ERR_PROTOCOL, (*what).to_string()),
    };
    w.write_all(&[code])?;
    write_string(w, &msg)
}

fn decode_error<R: Read>(r: &mut R) -> Result<ServiceError, StoreError> {
    let mut code = [0u8; 1];
    r.read_exact(&mut code)?;
    let msg = read_wire_string(r)?;
    Ok(match code[0] {
        ERR_NO_WORKBOOK => ServiceError::NoSuchWorkbook(msg),
        ERR_AUTH => ServiceError::AuthFailed,
        ERR_NO_SESSION => ServiceError::NoSession,
        ERR_NO_SHEET => ServiceError::NoSuchSheet(msg),
        ERR_SCOPE => ServiceError::OutOfScope(msg),
        ERR_BAD_REQUEST => ServiceError::BadRequest(msg),
        ERR_NOT_PERSISTENT => ServiceError::NotPersistent,
        ERR_DEGRADED => ServiceError::Degraded(msg),
        ERR_DEADLINE => ServiceError::DeadlineExceeded,
        ERR_BUSY => ServiceError::Busy,
        ERR_SHUTDOWN => ServiceError::ShuttingDown,
        ERR_WIRE => ServiceError::BadRequest(format!("peer wire error: {msg}")),
        ERR_IO => ServiceError::Io(msg),
        ERR_PROTOCOL => ServiceError::BadRequest(format!("peer protocol error: {msg}")),
        _ => return Err(StoreError::Malformed("unknown error code")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_formula::CellError;

    fn sample_requests() -> Vec<Request> {
        let c = Cell::new(3, 7);
        let r = Range::from_coords(1, 1, 4, 9);
        vec![
            Request::Open { workbook: "Sales".into(), auth: None, scope: None },
            Request::Open {
                workbook: "Sales".into(),
                auth: Some("sekrit".into()),
                scope: Some(vec!["Data".into(), "My Summary".into()]),
            },
            Request::Close { token: 99 },
            Request::SetValue {
                token: 1,
                sheet: "Data".into(),
                cell: c,
                value: Value::Number(2.5),
            },
            Request::SetFormula {
                token: 1,
                sheet: "Data".into(),
                cell: c,
                src: "SUM(A1:A9)".into(),
            },
            Request::Autofill { token: 2, sheet: "Data".into(), src: c, targets: r },
            Request::ClearRange { token: 2, sheet: "Data".into(), range: r },
            Request::Get { token: 3, sheet: "Data".into(), cell: c },
            Request::GetRange { token: 3, sheet: "Data".into(), range: r },
            Request::Dependents { token: 4, sheet: "Data".into(), range: r },
            Request::Precedents { token: 4, sheet: "Data".into(), range: r },
            Request::DirtyCount { token: 5 },
            Request::Recalc { token: 5 },
            Request::Save { token: 6 },
            Request::Stats { token: u64::MAX },
            Request::RecalcRange { token: 7, sheet: "Data".into(), range: r },
            Request::GetRangeFresh { token: 7, sheet: "Data".into(), range: r },
            Request::InsertRows { token: 8, sheet: "Data".into(), at: 5, n: 3 },
            Request::DeleteRows { token: 8, sheet: "Data".into(), at: 1, n: 200 },
            Request::InsertCols { token: 8, sheet: "Data".into(), at: 2, n: 1 },
            Request::DeleteCols { token: 8, sheet: "Data".into(), at: 7, n: u32::MAX },
            Request::Metrics { token: 9 },
            Request::TraceDump { token: 10 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let c = Cell::new(3, 7);
        let r = Range::from_coords(1, 1, 4, 9);
        vec![
            Response::Opened { token: 42, sheets: vec!["Data".into(), "Out".into()], epoch: 7 },
            Response::Closed,
            Response::Applied { epoch: 8, dirty: 12 },
            Response::Value(Value::Text("héllo".into())),
            Response::Value(Value::Error(CellError::Ref)),
            Response::Cells(vec![(c, Value::Number(1.0)), (Cell::new(4, 7), Value::Bool(true))]),
            Response::Ranges(vec![("Data".into(), r), ("Out".into(), Range::cell(c))]),
            Response::Count(77),
            Response::Recalced { evaluated: 123, epoch: 9 },
            Response::Saved { wal_records: 0 },
            Response::Stats(ServiceStats {
                epoch: 1,
                sheets: 2,
                cells: 3,
                dirty: 4,
                graph_edges: 5,
                cross_edges: 6,
                edits: 7,
                batches: 8,
                recalcs: 9,
                coalesced: 10,
                sessions: 11,
                busy_rejected: 12,
                auth_failures: 13,
                scope_denials: 14,
                degraded: 1,
                deadline_expired: 15,
            }),
            Response::Metrics(Box::new(sample_snapshot())),
            Response::Metrics(Box::default()),
            Response::Traces(Box::new(sample_trace_dump())),
            Response::Traces(Box::default()),
            Response::Err(ServiceError::NoSuchWorkbook("nope".into())),
            Response::Err(ServiceError::AuthFailed),
            Response::Err(ServiceError::OutOfScope("Secret".into())),
            Response::Err(ServiceError::BadRequest("unparsable".into())),
            Response::Err(ServiceError::Degraded("wal append: disk full".into())),
            Response::Err(ServiceError::DeadlineExceeded),
        ]
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![MetricValue {
                name: "taco_wal_records_total".into(),
                labels: String::new(),
                value: 41,
            }],
            gauges: vec![GaugeValue {
                name: "taco_graph_edges".into(),
                labels: "book=\"demo\"".into(),
                value: -3,
            }],
            histograms: vec![HistogramSnapshot {
                name: "taco_request_ns".into(),
                labels: "op=\"recalc\"".into(),
                count: 3,
                sum: 905,
                buckets: vec![(3, 2), (10, 1)],
                p50: 7,
                p90: 1023,
                p99: 1023,
            }],
            slow_spans: vec![SlowSpan {
                name: "workbook.recalc".into(),
                cat: SpanCat::Recalc,
                trace_hi: 0x0123_4567_89AB_CDEF,
                trace_lo: u64::MAX,
                span_id: 11,
                parent_id: 7,
                start_ns: 5,
                dur_ns: 20_000_000,
                a: 100,
                b: 2,
            }],
        }
    }

    fn sample_trace_dump() -> TraceDump {
        let span = |name: &str, cat, span_id, parent_id| SlowSpan {
            name: name.into(),
            cat,
            trace_hi: 0xFEED_FACE_CAFE_BEEF,
            trace_lo: 0x0102_0304_0506_0708,
            span_id,
            parent_id,
            start_ns: 10,
            dur_ns: 50,
            a: 1,
            b: 2,
        };
        TraceDump {
            recent: vec![
                span("request.recalc", SpanCat::Request, 1, 0),
                span("workbook.recalc", SpanCat::Recalc, 2, 1),
                span("wal.append", SpanCat::WalAppend, 3, 1),
            ],
            slow: vec![span("request.recalc", SpanCat::Request, 1, 0)],
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    fn sample_ctx() -> TraceContext {
        TraceContext {
            trace_hi: 0xAAAA_BBBB_CCCC_DDDD,
            trace_lo: 0x1111_2222_3333_4444,
            span_id: 42,
            parent_id: 0,
        }
    }

    #[test]
    fn traced_wrapper_round_trips_context_and_request() {
        for req in sample_requests() {
            let bytes = req.encode_traced(sample_ctx());
            let (ctx, decoded) = Request::decode_traced(&bytes).unwrap();
            assert_eq!(decoded, req, "{req:?}");
            let ctx = ctx.expect("wrapper carries a context");
            assert_eq!(ctx.trace_hi, sample_ctx().trace_hi);
            assert_eq!(ctx.trace_lo, sample_ctx().trace_lo);
            assert_eq!(ctx.span_id, sample_ctx().span_id, "carried span id is the parent");
            // The plain decoder accepts the wrapper and drops the context.
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn untraced_requests_decode_with_no_context() {
        for req in sample_requests() {
            let (ctx, decoded) = Request::decode_traced(&req.encode()).unwrap();
            assert!(ctx.is_none(), "{req:?}");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn malformed_traced_wrappers_are_typed() {
        // A zero trace id cannot name a trace.
        let mut zeroed = Request::Recalc { token: 1 }.encode_traced(sample_ctx());
        zeroed[1..17].fill(0);
        assert!(matches!(
            Request::decode_traced(&zeroed),
            Err(StoreError::Malformed("traced wrapper with zero trace id"))
        ));
        // A wrapper inside a wrapper is rejected, not recursed into.
        let inner = Request::Recalc { token: 1 }.encode_traced(sample_ctx());
        let mut nested = vec![super::REQ_TRACED];
        nested.extend_from_slice(&[1u8; 24]);
        nested.extend_from_slice(&inner);
        assert!(matches!(
            Request::decode_traced(&nested),
            Err(StoreError::Malformed("nested traced wrapper"))
        ));
        // A bare wrapper with no inner request is truncation, not panic.
        let bare = &inner[..25];
        assert!(Request::decode_traced(bare).is_err());
    }

    #[test]
    fn every_truncation_is_typed() {
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "{req:?} cut at {cut}");
            }
            let traced = req.encode_traced(sample_ctx());
            for cut in 0..traced.len() {
                assert!(
                    Request::decode_traced(&traced[..cut]).is_err(),
                    "traced {req:?} cut at {cut}"
                );
            }
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                assert!(Response::decode(&bytes[..cut]).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = Request::Recalc { token: 1 }.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(StoreError::Malformed("trailing bytes in request"))
        ));
        let mut bytes = Response::Closed.encode();
        bytes.push(0);
        assert!(matches!(
            Response::decode(&bytes),
            Err(StoreError::Malformed("trailing bytes in response"))
        ));
    }

    #[test]
    fn every_bit_flip_is_handled() {
        // A flipped byte may still decode (e.g. inside string content) —
        // the property is that decoding never panics and never
        // over-allocates, for every single-bit corruption of every
        // sample message.
        for req in sample_requests() {
            for bytes in [req.encode(), req.encode_traced(sample_ctx())] {
                for i in 0..bytes.len() {
                    for bit in 0..8 {
                        let mut corrupt = bytes.clone();
                        corrupt[i] ^= 1 << bit;
                        let _ = Request::decode_traced(&corrupt);
                    }
                }
            }
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= 1 << bit;
                    let _ = Response::decode(&corrupt);
                }
            }
        }
    }

    #[test]
    fn oversized_metrics_lengths_are_rejected_before_allocation() {
        use taco_store::codec::write_uvarint;
        // Each of the four list headers in turn declares u64::MAX
        // entries; the decoder must fail on the length check, not
        // attempt a reservation.
        for lists_before in 0..4usize {
            let mut bytes = vec![super::RESP_METRICS];
            for _ in 0..lists_before {
                write_uvarint(&mut bytes, 0).unwrap();
            }
            write_uvarint(&mut bytes, u64::MAX).unwrap();
            assert!(matches!(
                Response::decode(&bytes),
                Err(StoreError::Malformed("metrics list length out of range"))
            ));
        }
        // Same for a histogram's bucket list.
        let mut bytes = vec![super::RESP_METRICS];
        write_uvarint(&mut bytes, 0).unwrap(); // counters
        write_uvarint(&mut bytes, 0).unwrap(); // gauges
        write_uvarint(&mut bytes, 1).unwrap(); // one histogram
        write_string(&mut bytes, "h").unwrap();
        write_string(&mut bytes, "").unwrap();
        write_uvarint(&mut bytes, 1).unwrap(); // count
        write_uvarint(&mut bytes, 1).unwrap(); // sum
        write_uvarint(&mut bytes, u64::MAX).unwrap(); // buckets
        assert!(matches!(
            Response::decode(&bytes),
            Err(StoreError::Malformed("histogram bucket count out of range"))
        ));
    }

    #[test]
    fn metrics_snapshot_round_trips_losslessly() {
        let resp = Response::Metrics(Box::new(sample_snapshot()));
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn trace_dump_round_trips_losslessly() {
        let resp = Response::Traces(Box::new(sample_trace_dump()));
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn oversized_trace_lists_are_rejected_before_allocation() {
        use taco_store::codec::write_uvarint;
        for lists_before in 0..2usize {
            let mut bytes = vec![super::RESP_TRACES];
            for _ in 0..lists_before {
                write_uvarint(&mut bytes, 0).unwrap();
            }
            write_uvarint(&mut bytes, u64::MAX).unwrap();
            assert!(matches!(
                Response::decode(&bytes),
                Err(StoreError::Malformed("metrics list length out of range"))
            ));
        }
    }

    #[test]
    fn unknown_ops_are_typed() {
        assert!(matches!(
            Request::decode(&[200]),
            Err(StoreError::Malformed("unknown request op"))
        ));
        assert!(matches!(
            Response::decode(&[200]),
            Err(StoreError::Malformed("unknown response op"))
        ));
        assert!(Request::decode(&[]).is_err());
    }
}
