//! The command protocol: plain-data [`Request`]/[`Response`] enums with a
//! compact binary encoding, each message declared **once**.
//!
//! A message is one row of the [`Request`] or [`Response`] table below: its
//! wire tag, its variant, its fields *in wire order* and — for a request —
//! its operation name and retry class. From that row `wire_enum!` derives
//! the enum variant itself, the encoder, the decoder, the values the
//! robustness sweeps try (`samples()`), and for requests [`Request::tag`],
//! [`Request::op_name`], the [`OP_NAMES`] / [`OP_LABELS`] arrays and the
//! two accessors the retrying client needs. A field is written and read by
//! its *type*: the private `Wire` trait is implemented once per shape the
//! protocol uses, so a bound or a range check lives with the type and
//! holds wherever the type appears. Adding a message is one row here, one
//! `Registry::try_execute` arm and one `Client` method — what a request
//! *does* is behaviour and stays hand-written.
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
use std::io::Read;
use taco_formula::{CellError, Value};
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

/// The wire form of one field type: how it is written, how it is read
/// (with every check its values need), and the values the round-trip,
/// truncation and bit-flip sweeps try for it.
trait Wire: Clone + Sized {
    /// The most entries a `Vec<Self>` may declare, and the error when it
    /// declares more — on top of the rule every list obeys (no more
    /// entries than payload bytes remain).
    const LIST_BOUND: (u64, &'static str) = (u64::MAX, "");
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut &[u8]) -> Result<Self, StoreError>;
    /// Never empty.
    fn samples() -> Vec<Self>;
}

/// Sample `i` of a field type, cycling: message `i` of a variant takes
/// sample `i` of each field, so every field sample appears in some
/// message without multiplying the lists out.
fn pick<T: Wire>(i: usize) -> T {
    let samples = T::samples();
    samples[i % samples.len()].clone()
}

/// The next `N` payload bytes (a truncated payload is the store's typed
/// `Truncated`, as everywhere below the codec).
fn read_bytes<const N: usize>(r: &mut &[u8]) -> Result<[u8; N], StoreError> {
    let mut bytes = [0u8; N];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// A leaf field type: `|value, sink| write`, `|source| read`, samples.
/// Leaves and pairs are `#[inline]` because it is measured: without it the
/// codec is a third slower on list replies (each entry a call into another
/// codegen unit), with it the generated codec times as the hand-written one.
macro_rules! wire_leaf {
    ($t:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr, [$($sample:expr),+]) => {
        impl Wire for $t {
            #[inline]
            fn put(&self, $w: &mut Vec<u8>) {
                let $v = self;
                let written: Result<(), StoreError> = $put;
                debug_assert!(written.is_ok(), "Vec sinks cannot fail");
            }
            #[inline]
            fn get($r: &mut &[u8]) -> Result<Self, StoreError> {
                $get
            }
            fn samples() -> Vec<Self> {
                vec![$($sample),+]
            }
        }
    };
}

// Session tokens, epochs and counters.
wire_leaf!(u64: |v, w| write_uvarint(w, *v), |r| read_uvarint(r), [1, 99, u64::MAX]);
// Grid indexes (row / column positions and counts).
wire_leaf!(u32: |v, w| write_uvarint(w, u64::from(*v)),
    |r| u32::try_from(read_uvarint(r)?)
        .map_err(|_| StoreError::Malformed("grid index out of range")),
    [5, 200, u32::MAX]);
// Gauge values.
wire_leaf!(i64: |v, w| write_ivarint(w, *v), |r| read_ivarint(r), [-3, i64::MAX]);
// Raw bytes: tags, flags, codes, histogram bucket indexes.
wire_leaf!(u8: |v, w| { w.push(*v); Ok(()) }, |r| Ok(read_bytes::<1>(r)?[0]), [3, 10]);
wire_leaf!(String: |v, w| write_string(w, v), |r| read_string(r, MAX_WIRE_STRING),
    ["Data".into(), "My Summary".into(), String::new()]);
wire_leaf!(Cell: |v, w| write_cell(w, *v), |r| read_cell(r), [Cell::new(3, 7), Cell::new(4, 7)]);
wire_leaf!(Range: |v, w| write_range(w, *v), |r| read_range(r),
    [Range::from_coords(1, 1, 4, 9), Range::cell(Cell::new(3, 7))]);
wire_leaf!(Value: |v, w| write_value(w, v), |r| read_value(r),
    [Value::Number(2.5), Value::Text("héllo".into()), Value::Error(CellError::Ref),
     Value::Bool(true), Value::Empty]);

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            None => w.push(0),
            Some(v) => {
                w.push(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(StoreError::Malformed("flag byte out of range")),
        }
    }
    fn samples() -> Vec<Self> {
        std::iter::once(None).chain(T::samples().into_iter().map(Some)).collect()
    }
}

/// The one list-length rule: a list may not declare more entries than its
/// element type allows ([`Wire::LIST_BOUND`]) nor more than there are
/// payload bytes left (every entry costs at least one), and nothing is
/// reserved on the declared length's behalf.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u64).put(w);
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
        let n = read_uvarint(r)?;
        let (max, what) = T::LIST_BOUND;
        if n > max {
            return Err(StoreError::Malformed(what));
        }
        if n > r.len() as u64 {
            return Err(StoreError::Malformed("list length exceeds the payload"));
        }
        let mut list = Vec::new();
        for _ in 0..n {
            list.push(T::get(r)?);
        }
        Ok(list)
    }
    fn samples() -> Vec<Self> {
        vec![T::samples(), Vec::new()]
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (**self).put(w)
    }
    fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
        T::get(r).map(Box::new)
    }
    fn samples() -> Vec<Self> {
        T::samples().into_iter().map(Box::new).collect()
    }
}

/// A pair written member by member (list entries), optionally bounded.
macro_rules! wire_pair {
    (($a:ty, $b:ty) $(at most $bound:expr)?) => {
        impl Wire for ($a, $b) {
            $(const LIST_BOUND: (u64, &'static str) = $bound;)?
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                self.0.put(w);
                self.1.put(w);
            }
            #[inline]
            fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
                Ok((<$a>::get(r)?, <$b>::get(r)?))
            }
            fn samples() -> Vec<Self> {
                let n = <$a>::samples().len().max(<$b>::samples().len());
                (0..n).map(|i| (pick(i), pick(i))).collect()
            }
        }
    };
}

wire_pair!((Cell, Value));
wire_pair!((String, Range));
// A log₂ histogram has at most 64 buckets; anything larger is malformed.
wire_pair!((u8, u64)
    at most (taco_obs::HIST_BUCKETS as u64, "histogram bucket count out of range"));

/// A struct written field by field, in the order listed (the wire order,
/// whatever the struct's own order). With `pub struct` it declares the
/// struct too.
macro_rules! wire_fields {
    (
        $(#[$sm:meta])*
        pub struct $t:ident { $( $(#[$fm:meta])* pub $f:ident: $ft:ty ),+ $(,)? }
    ) => {
        $(#[$sm])*
        pub struct $t { $( $(#[$fm])* pub $f: $ft ),+ }
        wire_fields!($t { $($f: $ft),+ });
    };
    ($t:ident { $($f:ident: $ft:ty),+ } $(at most $bound:expr)?) => {
        impl Wire for $t {
            $(const LIST_BOUND: (u64, &'static str) = $bound;)?
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$f.put(w);)+
            }
            fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
                Ok($t { $($f: <$ft>::get(r)?),+ })
            }
            fn samples() -> Vec<Self> {
                let n = 1 $(.max(<$ft>::samples().len()))+;
                (0..n).map(|i| $t { $($f: pick(i)),+ }).collect()
            }
        }
    };
}

const METRICS_BOUND: (u64, &str) = (MAX_METRICS_ENTRIES, "metrics list length out of range");

wire_fields!(MetricValue { name: String, labels: String, value: u64 } at most METRICS_BOUND);
wire_fields!(GaugeValue { name: String, labels: String, value: i64 } at most METRICS_BOUND);
wire_fields!(HistogramSnapshot {
    name: String, labels: String, count: u64, sum: u64, buckets: Vec<(u8, u64)>,
    p50: u64, p90: u64, p99: u64
} at most METRICS_BOUND);
wire_fields!(MetricsSnapshot {
    counters: Vec<MetricValue>, gauges: Vec<GaugeValue>, histograms: Vec<HistogramSnapshot>,
    slow_spans: Vec<SlowSpan>
});
wire_fields!(TraceDump { recent: Vec<SlowSpan>, slow: Vec<SlowSpan> });

/// Trace/span ids are full-entropy 64-bit values, so they travel as
/// fixed 8-byte little-endian words instead of varints (which would
/// cost 10 bytes for a random id).
fn read_u64_le(r: &mut &[u8]) -> Result<u64, StoreError> {
    Ok(u64::from_le_bytes(read_bytes(r)?))
}

impl Wire for SlowSpan {
    const LIST_BOUND: (u64, &'static str) = METRICS_BOUND;
    fn put(&self, w: &mut Vec<u8>) {
        self.name.put(w);
        w.push(self.cat as u8);
        for id in [self.trace_hi, self.trace_lo, self.span_id, self.parent_id] {
            w.extend_from_slice(&id.to_le_bytes());
        }
        [self.start_ns, self.dur_ns, self.a, self.b].iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
        Ok(SlowSpan {
            name: String::get(r)?,
            cat: SpanCat::from_u8(u8::get(r)?)
                .ok_or(StoreError::Malformed("span category out of range"))?,
            trace_hi: read_u64_le(r)?,
            trace_lo: read_u64_le(r)?,
            span_id: read_u64_le(r)?,
            parent_id: read_u64_le(r)?,
            start_ns: u64::get(r)?,
            dur_ns: u64::get(r)?,
            a: u64::get(r)?,
            b: u64::get(r)?,
        })
    }
    fn samples() -> Vec<Self> {
        let span = |name: &str, cat, span_id, parent_id| SlowSpan {
            name: name.into(),
            cat,
            trace_hi: 0xFEED_FACE_CAFE_BEEF,
            trace_lo: u64::MAX,
            span_id,
            parent_id,
            start_ns: 10,
            dur_ns: 20_000_000,
            a: 100,
            b: 2,
        };
        vec![
            span("request.recalc", SpanCat::Request, 1, 0),
            span("workbook.recalc", SpanCat::Recalc, 2, 1),
            span("wal.append", SpanCat::WalAppend, 3, 1),
        ]
    }
}

/// [`ServiceError`] on the wire: a code byte and a message string. `unit`
/// variants send an empty message, `text` variants their payload, and the
/// two `peer` variants — a failure of the *sender's* transport, which
/// means nothing on the receiving side — are sent as their rendering and
/// arrive as `BadRequest("<prefix>: <rendering>")`.
macro_rules! wire_errors {
    (
        unit { $($uc:literal $u:ident),+ }
        text { $($tc:literal $t:ident),+ }
        peer { $($pc:literal $p:ident $prefix:literal),+ }
    ) => {
        impl Wire for ServiceError {
            fn put(&self, w: &mut Vec<u8>) {
                let (code, msg) = match self {
                    $(Self::$u => ($uc, String::new()),)+
                    $(Self::$t(msg) => ($tc, msg.clone()),)+
                    $(Self::$p(e) => ($pc, e.to_string()),)+
                };
                w.push(code);
                msg.put(w);
            }
            fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
                let (code, msg) = (u8::get(r)?, String::get(r)?);
                Ok(match code {
                    $($uc => Self::$u,)+
                    $($tc => Self::$t(msg),)+
                    $($pc => Self::BadRequest(format!(concat!($prefix, ": {}"), msg)),)+
                    _ => return Err(StoreError::Malformed("unknown error code")),
                })
            }
            /// Every variant that arrives as it was sent.
            fn samples() -> Vec<Self> {
                vec![$(Self::$u,)+ $(Self::$t("wal append: disk full".into()),)+]
            }
        }
    };
}

wire_errors! {
    unit { 1 AuthFailed, 2 NoSession, 6 NotPersistent, 7 Busy, 8 ShuttingDown, 13 DeadlineExceeded }
    text { 0 NoSuchWorkbook, 3 NoSuchSheet, 4 OutOfScope, 5 BadRequest, 10 Io, 12 Degraded }
    peer { 9 Wire "peer wire error", 11 Protocol "peer protocol error" }
}

/// How the retrying client treats a request whose outcome is unknown. A
/// mandatory column of the request table: a new request has no default
/// class to fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryClass {
    /// Safe to send twice, after re-opening the session a lost connection
    /// took with it.
    Read,
    /// A mutation: never re-sent, because the first copy may have applied.
    Write,
    /// Safe to send twice and never preceded by a re-open: it *is* the
    /// open, or it ends the session anyway.
    Session,
}

/// The binding of the field named `token`, if the variant has one: the
/// first copy of the field list is matched by name, the second supplies
/// the caller's binding of the same position.
macro_rules! token_binding {
    ([token $($n:ident)*] [$t:ident $($b:ident)*]) => { Some($t) };
    ([$skip:ident $($n:ident)*] [$s:ident $($b:ident)*]) => {
        token_binding!([$($n)*] [$($b)*])
    };
    ([] []) => { None };
}

/// Declares a message enum from its table. One row is
/// `tag Variant { field: Type, … }` (or `Variant(binding: Type)`, or a
/// bare `Variant`), fields in wire order, followed for requests by
/// `["op_name", RetryClass]`.
macro_rules! wire_enum {
    (
        $(#[$em:meta])*
        pub enum $E:ident: $what:literal {
            $(
                $(#[$vm:meta])*
                $tag:literal $v:ident
                $({ $( $(#[$fm:meta])* $f:ident: $ft:ty ),+ $(,)? })?
                $(( $(#[$pm:meta])* $p:ident: $pt:ty ))?
                $([ $name:literal, $class:ident ])?
            ),+ $(,)?
        }
    ) => {
        $(#[$em])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $E {
            $(
                $(#[$vm])*
                $v $({ $( $(#[$fm])* $f: $ft ),+ })? $(( $(#[$pm])* $pt ))?,
            )+
        }

        impl Wire for $E {
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $(Self::$v $({ $($f),+ })? $(($p))? => {
                        w.push($tag);
                        $($($f.put(w);)+)?
                        $($p.put(w);)?
                    })+
                }
            }
            fn get(r: &mut &[u8]) -> Result<Self, StoreError> {
                Ok(match u8::get(r)? {
                    $($tag => Self::$v $({ $($f: <$ft>::get(r)?),+ })? $((<$pt>::get(r)?))?,)+
                    _ => return Err(StoreError::Malformed(concat!("unknown ", $what, " op"))),
                })
            }
            fn samples() -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    let n = 1usize
                        $($(.max(<$ft>::samples().len()))+)? $(.max(<$pt>::samples().len()))?;
                    out.extend((0..n).map(|_i| {
                        Self::$v $({ $($f: pick::<$ft>(_i)),+ })? $((pick::<$pt>(_i)))?
                    }));
                )+
                out
            }
        }

        impl $E {
            /// Encodes the message as one frame payload.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.put(&mut out);
                out
            }

            /// One message per field sample of every variant: the inputs
            /// of the round-trip, truncation and bit-flip sweeps, in this
            /// module and on a live socket.
            #[doc(hidden)]
            pub fn samples() -> Vec<Self> {
                <Self as Wire>::samples()
            }

            fn decode_whole(mut bytes: &[u8]) -> Result<Self, StoreError> {
                let msg = Self::get(&mut bytes)?;
                if !bytes.is_empty() {
                    return Err(StoreError::Malformed(concat!("trailing bytes in ", $what)));
                }
                Ok(msg)
            }
        }

        wire_enum!(@ops $E $($tag $v $([$name, $class])? $({ $($f)+ })?;)+);
    };

    // A response table has no operation columns.
    (@ops $E:ident $($tag:literal $v:ident $({ $($f:ident)+ })?;)+) => {};
    (@ops $E:ident $(
        $tag:literal $v:ident [$name:literal, $class:ident] $({ $($f:ident)+ })?;
    )+) => {
        /// One past the largest request tag.
        const OPS: usize = {
            let mut n = 0;
            $(if $tag >= n { n = $tag + 1; })+
            n
        };

        /// Operation names, indexed by request tag (span labels).
        pub const OP_NAMES: [&str; OPS] = {
            let mut names = [""; OPS];
            $(names[$tag] = $name;)+
            names
        };

        /// Pre-rendered `op="..."` label strings, indexed by request tag
        /// (per-operation latency histogram labels — rendered once so
        /// request timing never formats).
        pub const OP_LABELS: [&str; OPS] = {
            let mut labels = [""; OPS];
            $(labels[$tag] = concat!("op=\"", $name, "\"");)+
            labels
        };

        impl $E {
            /// The request's wire tag (also the index into
            /// [`OP_LABELS`]).
            pub fn tag(&self) -> u8 {
                match self { $(Self::$v { .. } => $tag,)+ }
            }

            /// The request's operation name, for span labels.
            pub fn op_name(&self) -> &'static str {
                OP_NAMES[self.tag() as usize]
            }

            pub(crate) fn retry_class(&self) -> RetryClass {
                match self { $(Self::$v { .. } => RetryClass::$class,)+ }
            }

            /// The session token the request carries, for the retrying
            /// client to patch after a re-open (`None` for `Open`).
            #[allow(unused_variables)]
            pub(crate) fn token_mut(&mut self) -> Option<&mut u64> {
                match self {
                    $(Self::$v $({ $($f),+ })? => token_binding!($([$($f)+] [$($f)+])?),)+
                }
            }
        }
    };
}

wire_enum! {
    /// One client command. Every variant after [`Request::Open`] carries the
    /// session token `Open` returned.
    pub enum Request: "request" {
        /// Starts a session against a named workbook.
        0 Open {
            /// The workbook's registry name (case-insensitive).
            workbook: String,
            /// The workbook's auth token, when it requires one.
            auth: Option<String>,
            /// Restrict the session to these sheets (names); `None` = all.
            scope: Option<Vec<String>>,
        } ["open", Session],
        /// Ends a session.
        1 Close {
            /// The session token.
            token: u64,
        } ["close", Session],
        /// Sets a pure value.
        2 SetValue {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// Target cell.
            cell: Cell,
            /// The new value.
            value: Value,
        } ["set_value", Write],
        /// Sets a formula (leading `=` optional).
        3 SetFormula {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// Target cell.
            cell: Cell,
            /// Formula source text.
            src: String,
        } ["set_formula", Write],
        /// Autofills the formula at `src` over `targets`.
        4 Autofill {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// The source formula cell.
            src: Cell,
            /// The fill targets.
            targets: Range,
        } ["autofill", Write],
        /// Clears every cell in `range`.
        5 ClearRange {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// The cleared range.
            range: Range,
        } ["clear_range", Write],
        /// Reads one cell's value (snapshot read).
        6 Get {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// The cell to read.
            cell: Cell,
        } ["get", Read],
        /// Reads every non-empty cell in `range` (snapshot read).
        7 GetRange {
            /// The session token.
            token: u64,
            /// Target sheet name.
            sheet: String,
            /// The range to read.
            range: Range,
        } ["get_range", Read],
        /// All transitive dependents of `sheet!range`, across sheets.
        8 Dependents {
            /// The session token.
            token: u64,
            /// Probe sheet name.
            sheet: String,
            /// Probe range.
            range: Range,
        } ["dependents", Read],
        /// All transitive precedents of `sheet!range`, across sheets.
        9 Precedents {
            /// The session token.
            token: u64,
            /// Probe sheet name.
            sheet: String,
            /// Probe range.
            range: Range,
        } ["precedents", Read],
        /// Number of cells awaiting recalculation (snapshot read).
        10 DirtyCount {
            /// The session token.
            token: u64,
        } ["dirty_count", Read],
        /// Forces a recalculation (also the write-queue barrier: it runs
        /// after every previously queued write).
        11 Recalc {
            /// The session token.
            token: u64,
        } ["recalc", Read],
        /// Folds the workbook's WAL into a fresh snapshot (persistent
        /// workbooks only).
        12 Save {
            /// The session token.
            token: u64,
        } ["save", Read],
        /// Service counters and workbook totals.
        13 Stats {
            /// The session token.
            token: u64,
        } ["stats", Read],
        /// Demand-driven recalculation: evaluates only the transitive dirty
        /// precedents of `sheet!range`, leaving the rest lazily dirty. A
        /// write-queue barrier like [`Request::Recalc`].
        14 RecalcRange {
            /// The session token.
            token: u64,
            /// Viewport sheet name.
            sheet: String,
            /// The viewport.
            range: Range,
        } ["recalc_range", Read],
        /// Reads every non-empty cell in `range` after a demand-driven
        /// recalculation of that viewport — a "fresh" read, unlike the
        /// snapshot read [`Request::GetRange`].
        15 GetRangeFresh {
            /// The session token.
            token: u64,
            /// Viewport sheet name.
            sheet: String,
            /// The viewport.
            range: Range,
        } ["get_range_fresh", Read],
        /// Inserts `n` rows before row `at` — a workbook-wide structural
        /// edit: references to the sheet from *other* sheets are rewritten
        /// too (full-range deletions become `#REF!`).
        16 InsertRows {
            /// The session token.
            token: u64,
            /// The edited sheet's name.
            sheet: String,
            /// First shifted row.
            at: u32,
            /// Rows inserted.
            n: u32,
        } ["insert_rows", Write],
        /// Deletes the rows `[at, at + n)`; see [`Request::InsertRows`].
        17 DeleteRows {
            /// The session token.
            token: u64,
            /// The edited sheet's name.
            sheet: String,
            /// First deleted row.
            at: u32,
            /// Rows deleted.
            n: u32,
        } ["delete_rows", Write],
        /// Inserts `n` columns before column `at`; see
        /// [`Request::InsertRows`].
        18 InsertCols {
            /// The session token.
            token: u64,
            /// The edited sheet's name.
            sheet: String,
            /// First shifted column.
            at: u32,
            /// Columns inserted.
            n: u32,
        } ["insert_cols", Write],
        /// Deletes the columns `[at, at + n)`; see [`Request::InsertRows`].
        19 DeleteCols {
            /// The session token.
            token: u64,
            /// The edited sheet's name.
            sheet: String,
            /// First deleted column.
            at: u32,
            /// Columns deleted.
            n: u32,
        } ["delete_cols", Write],
        /// A full metrics snapshot from the service's observability hub
        /// (counters, gauges, histogram quantiles, slow spans).
        20 Metrics {
            /// The session token.
            token: u64,
        } ["metrics", Read],
        /// A bounded span-tree snapshot from the service's tracer: the
        /// recent-span ring plus the slow-request log (requests over the
        /// slow threshold keep their full subtree).
        21 TraceDump {
            /// The session token.
            token: u64,
        } ["trace_dump", Read],
    }
}

wire_enum! {
    /// One server reply.
    pub enum Response: "response" {
        /// Session started.
        0 Opened {
            /// The session token to carry in subsequent requests.
            token: u64,
            /// Snapshot epoch at open time.
            epoch: u64,
            /// The sheets visible to the session (scope applied).
            sheets: Vec<String>,
        },
        /// Session ended.
        1 Closed,
        /// A write was applied (and recalculated) by the workbook's writer.
        2 Applied {
            /// Snapshot epoch after the write's batch was published.
            epoch: u64,
            /// Dirty ranges routed for the batch this write rode in.
            dirty: u64,
        },
        /// A cell value.
        3 Value(
            /// The value (Empty for never-written cells).
            value: Value
        ),
        /// The non-empty cells of a range, sorted by (row, col).
        4 Cells(
            /// `(cell, value)` pairs.
            cells: Vec<(Cell, Value)>
        ),
        /// Query results as `(sheet name, range)` pairs.
        5 Ranges(
            /// The ranges, sorted by sheet then position.
            ranges: Vec<(String, Range)>
        ),
        /// A counter (dirty count).
        6 Count(
            /// The count.
            count: u64
        ),
        /// A recalculation ran.
        7 Recalced {
            /// Formula cells evaluated.
            evaluated: u64,
            /// Snapshot epoch after publication.
            epoch: u64,
        },
        /// The workbook was folded to its snapshot file.
        8 Saved {
            /// WAL records remaining after the fold (0 unless compaction is
            /// disabled).
            wal_records: u64,
        },
        /// Service counters.
        9 Stats(
            /// The counters.
            stats: ServiceStats
        ),
        /// A metrics snapshot ([`Request::Metrics`]).
        11 Metrics(
            /// The hub snapshot: counters, gauges, frozen histograms, and
            /// the slow-span log.
            snapshot: Box<MetricsSnapshot>
        ),
        /// A span-tree snapshot ([`Request::TraceDump`]).
        12 Traces(
            /// The recent-span ring plus the slow-request log, oldest first.
            dump: Box<TraceDump>
        ),
        /// The request failed.
        10 Err(
            /// The typed failure.
            error: ServiceError
        ),
    }
}

wire_fields! {
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
}

/// The traced-request wrapper tag: `22 · trace_hi · trace_lo · parent
/// span id (u64 LE each) · inner request bytes`. Not a request of its
/// own — a frame extension that propagates the client's trace context
/// so server-side spans parent under the caller's span tree.
const REQ_TRACED: u8 = 22;

impl Request {
    /// Whether the request may be sent again after an unknown outcome:
    /// everything but a write.
    pub(crate) fn is_idempotent(&self) -> bool {
        self.retry_class() != RetryClass::Write
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
        let mut ctx = None;
        if let Some((&REQ_TRACED, mut rest)) = bytes.split_first() {
            let r = &mut rest;
            let (trace_hi, trace_lo, span_id) = (read_u64_le(r)?, read_u64_le(r)?, read_u64_le(r)?);
            if trace_hi == 0 && trace_lo == 0 {
                return Err(StoreError::Malformed("traced wrapper with zero trace id"));
            }
            if rest.first() == Some(&REQ_TRACED) {
                return Err(StoreError::Malformed("nested traced wrapper"));
            }
            ctx = Some(TraceContext { trace_hi, trace_lo, span_id, parent_id: 0 });
            bytes = rest;
        }
        Ok((ctx, Self::decode_whole(bytes)?))
    }
}

impl Response {
    /// Decodes one frame payload; trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode_whole(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample_ctx() -> TraceContext {
        TraceContext {
            trace_hi: 0xAAAA_BBBB_CCCC_DDDD,
            trace_lo: 0x1111_2222_3333_4444,
            span_id: 42,
            parent_id: 0,
        }
    }

    /// Every single-bit corruption of `bytes`.
    fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..bytes.len() * 8).map(|bit| {
            let mut corrupt = bytes.to_vec();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            corrupt
        })
    }

    /// The tags a decoder knows: every first byte it does not answer with
    /// `unknown`.
    fn known_tags<T>(decode: fn(&[u8]) -> Result<T, StoreError>, unknown: &str) -> BTreeSet<u8> {
        (0..=u8::MAX)
            .filter(|&tag| !matches!(decode(&[tag]), Err(StoreError::Malformed(m)) if m == unknown))
            .collect()
    }

    #[test]
    fn the_tables_check_themselves() {
        // Request tags: unique, dense from 0 but for the traced wrapper's
        // (which is not a request's), every one in `samples()`, every one
        // named, and the label arrays filled by tag.
        let mut tags = known_tags(Request::decode, "unknown request op");
        assert_eq!(tags, (0..tags.len() as u8).collect(), "tags are dense");
        assert!(tags.remove(&REQ_TRACED), "the wrapper's tag reads as a wrapper, not as unknown");
        let sampled: BTreeSet<u8> = Request::samples().iter().map(Request::tag).collect();
        assert_eq!(sampled, tags, "samples() holds every request variant");
        assert_eq!(OP_NAMES.len(), usize::from(*tags.last().unwrap()) + 1);
        let names: BTreeSet<&str> = tags.iter().map(|&t| OP_NAMES[usize::from(t)]).collect();
        assert_eq!(names.len(), tags.len(), "names are unique");
        assert!(!names.contains(""));
        for &tag in &tags {
            let (name, label) = (OP_NAMES[usize::from(tag)], OP_LABELS[usize::from(tag)]);
            assert_eq!(label, format!("op=\"{name}\""));
        }
        for req in Request::samples() {
            assert_eq!(req.encode()[0], req.tag());
            assert_eq!(req.op_name(), OP_NAMES[req.tag() as usize]);
            // The token accessor reaches the token every request but
            // `Open` carries (first on the wire, after the tag).
            let mut patched = req.clone();
            match patched.token_mut() {
                Some(token) => *token = 0x7777,
                None => assert!(matches!(req, Request::Open { .. }), "{req:?}"),
            }
            let open = matches!(req, Request::Open { .. });
            assert_eq!(patched.encode()[1..].starts_with(&[0xf7, 0xee, 0x01]), !open, "{req:?}");
        }
        // Response tags: the same, minus the operation columns.
        let tags = known_tags(Response::decode, "unknown response op");
        let sampled: BTreeSet<u8> = Response::samples().iter().map(|r| r.encode()[0]).collect();
        assert_eq!(sampled, tags, "samples() holds every response variant");
        assert_eq!(tags, (0..tags.len() as u8).collect(), "response tags are dense");
        // Every error that arrives as sent is sampled.
        assert_eq!(ServiceError::samples().len(), 12);
    }

    #[test]
    fn retry_classes_are_what_the_client_relies_on() {
        for req in Request::samples() {
            let write = matches!(
                req,
                Request::SetValue { .. }
                    | Request::SetFormula { .. }
                    | Request::Autofill { .. }
                    | Request::ClearRange { .. }
                    | Request::InsertRows { .. }
                    | Request::DeleteRows { .. }
                    | Request::InsertCols { .. }
                    | Request::DeleteCols { .. }
            );
            assert_eq!(req.is_idempotent(), !write, "{req:?}");
            let session = matches!(req, Request::Open { .. } | Request::Close { .. });
            assert_eq!(req.retry_class() == RetryClass::Session, session, "{req:?}");
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in Request::samples() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in Response::samples() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn peer_transport_errors_arrive_as_bad_request() {
        // The two deliberately asymmetric codes: what failed on the peer's
        // transport is, on this side, just a request that did not work.
        for (sent, received) in [
            (
                ServiceError::Wire(StoreError::BadMagic),
                format!("peer wire error: {}", StoreError::BadMagic),
            ),
            (
                ServiceError::Protocol("expected Opened"),
                "peer protocol error: expected Opened".into(),
            ),
        ] {
            let bytes = Response::Err(sent.clone()).encode();
            assert_eq!(
                Response::decode(&bytes).unwrap(),
                Response::Err(ServiceError::BadRequest(received)),
                "{sent:?}"
            );
            for cut in 0..bytes.len() {
                assert!(Response::decode(&bytes[..cut]).is_err(), "{sent:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn traced_wrapper_round_trips_context_and_request() {
        for req in Request::samples() {
            let bytes = req.encode_traced(sample_ctx());
            let (ctx, decoded) = Request::decode_traced(&bytes).unwrap();
            assert_eq!(decoded, req, "{req:?}");
            assert_eq!(ctx, Some(sample_ctx()), "carried span id is the parent");
            // The plain decoder accepts the wrapper and drops the context.
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn untraced_requests_decode_with_no_context() {
        for req in Request::samples() {
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
        let mut nested = vec![REQ_TRACED];
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
        for req in Request::samples() {
            for bytes in [req.encode(), req.encode_traced(sample_ctx())] {
                for cut in 0..bytes.len() {
                    assert!(Request::decode_traced(&bytes[..cut]).is_err(), "{req:?} cut at {cut}");
                }
            }
        }
        for resp in Response::samples() {
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
        for req in Request::samples() {
            for bytes in [req.encode(), req.encode_traced(sample_ctx())] {
                for corrupt in bit_flips(&bytes) {
                    let _ = Request::decode_traced(&corrupt);
                }
            }
        }
        for resp in Response::samples() {
            for corrupt in bit_flips(&resp.encode()) {
                let _ = Response::decode(&corrupt);
            }
        }
    }

    /// `prefix` followed by a list header declaring `u64::MAX` entries.
    fn oversized(prefix: &[u8]) -> Vec<u8> {
        let mut bytes = prefix.to_vec();
        write_uvarint(&mut bytes, u64::MAX).unwrap();
        bytes
    }

    #[test]
    fn oversized_metrics_lengths_are_rejected_before_allocation() {
        let metrics = Response::Metrics(Box::default()).encode()[0];
        // Each of the four list headers in turn declares u64::MAX
        // entries; the decoder must fail on the length check, not
        // attempt a reservation.
        for lists_before in 0..4usize {
            let mut prefix = vec![metrics];
            prefix.resize(1 + lists_before, 0);
            assert!(matches!(
                Response::decode(&oversized(&prefix)),
                Err(StoreError::Malformed("metrics list length out of range"))
            ));
        }
        // Same for a histogram's bucket list.
        let mut prefix = vec![metrics, 0, 0, 1]; // no counters, no gauges, one histogram
        write_string(&mut prefix, "h").unwrap();
        write_string(&mut prefix, "").unwrap();
        prefix.extend_from_slice(&[1, 1]); // count, sum
        assert!(matches!(
            Response::decode(&oversized(&prefix)),
            Err(StoreError::Malformed("histogram bucket count out of range"))
        ));
        // The lists with no bound of their own obey the rule every list
        // obeys: no more entries than payload bytes remain.
        let cells = Response::Cells(Vec::new()).encode()[0];
        let ranges = Response::Ranges(Vec::new()).encode()[0];
        let opened =
            [Response::Opened { token: 1, epoch: 1, sheets: Vec::new() }.encode()[0], 1, 1];
        for prefix in [&[cells][..], &[ranges], &opened] {
            assert!(matches!(
                Response::decode(&oversized(prefix)),
                Err(StoreError::Malformed("list length exceeds the payload"))
            ));
        }
        let open = Request::Open { workbook: "b".into(), auth: None, scope: Some(Vec::new()) };
        let mut prefix = open.encode();
        assert_eq!(prefix.pop(), Some(0), "an empty scope list ends the frame");
        assert!(matches!(
            Request::decode(&oversized(&prefix)),
            Err(StoreError::Malformed("list length exceeds the payload"))
        ));
        // One entry too many for the bytes that follow is already too many.
        let mut bytes = vec![cells, 3];
        bytes.extend_from_slice(&[1, 1]);
        assert!(matches!(
            Response::decode(&bytes),
            Err(StoreError::Malformed("list length exceeds the payload"))
        ));
    }

    #[test]
    fn metrics_snapshot_round_trips_losslessly() {
        let snap = &<Box<MetricsSnapshot>>::samples()[0];
        assert!(
            !snap.counters.is_empty()
                && !snap.gauges.is_empty()
                && !snap.slow_spans.is_empty()
                && snap.histograms.iter().any(|h| !h.buckets.is_empty()),
            "the first sample fills every list"
        );
        let resp = Response::Metrics(snap.clone());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn trace_dump_round_trips_losslessly() {
        let dump = &<Box<TraceDump>>::samples()[0];
        assert!(!dump.recent.is_empty() && !dump.slow.is_empty());
        let resp = Response::Traces(dump.clone());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn oversized_trace_lists_are_rejected_before_allocation() {
        let traces = Response::Traces(Box::default()).encode()[0];
        for lists_before in 0..2usize {
            let mut prefix = vec![traces];
            prefix.resize(1 + lists_before, 0);
            assert!(matches!(
                Response::decode(&oversized(&prefix)),
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
        // Span category 2 (the intra-sheet level nothing records) is
        // retired, not reassigned: it reads as out of range.
        let span = SlowSpan::samples().remove(0);
        let cat_at = 2 + 1 + span.name.len(); // tag, list length, name
        let dump = TraceDump { recent: vec![span], slow: Vec::new() };
        let mut bytes = Response::Traces(Box::new(dump)).encode();
        bytes[cat_at] = 2;
        assert!(matches!(
            Response::decode(&bytes),
            Err(StoreError::Malformed("span category out of range"))
        ));
    }
}
