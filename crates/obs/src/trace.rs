//! The span tracer: a bounded, pre-allocated ring of fixed-size span
//! records plus a separate slow-op ring for spans over a configurable
//! threshold.
//!
//! Spans are causal: every record carries a 128-bit trace id plus its own
//! span id and its parent's span id, so a flat ring reconstructs into a
//! span *tree* per trace. Context propagates two ways:
//!
//! - **explicitly** — a [`TraceContext`] travels by value (it is four
//!   `u64`s) through message queues and the wire protocol;
//! - **ambiently** — [`TraceContext::enter`] installs a context in a
//!   thread-local slot, and every [`Tracer::record`] call on that thread
//!   parents itself under it until the guard drops. Layers that predate
//!   tracing (engine recalc spans, WAL appends) need no signature changes.
//!
//! Ids come from a splitmix64 stream seeded by
//! [`TracerOptions::id_seed`], so a fixed seed plus a [`ObsClock::Manual`]
//! clock makes whole span trees reproducible in tests. Recording stays
//! allocation-free: ids are copied by value into fixed-size records.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What a span measures — the hierarchy level / subsystem tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanCat {
    /// A whole workbook recalculation.
    Recalc = 0,
    /// One sheet SCC level within a recalculation.
    SheetLevel = 1,
    // 2 was the intra-sheet evaluation level; nothing records one, and the
    // number stays unassigned so the categories after it keep theirs.
    /// A demand-driven (viewport) recalculation.
    Demand = 3,
    /// One WAL record append.
    WalAppend = 4,
    /// One WAL fsync.
    WalFsync = 5,
    /// One WAL → snapshot compaction.
    Compaction = 6,
    /// One service request (decode → dispatch → response ready).
    Request = 7,
    /// One snapshot publication (copy-on-write epoch swap).
    Publish = 8,
}

impl SpanCat {
    /// The category for wire byte `b`, if valid.
    pub fn from_u8(b: u8) -> Option<SpanCat> {
        Some(match b {
            0 => SpanCat::Recalc,
            1 => SpanCat::SheetLevel,
            3 => SpanCat::Demand,
            4 => SpanCat::WalAppend,
            5 => SpanCat::WalFsync,
            6 => SpanCat::Compaction,
            7 => SpanCat::Request,
            8 => SpanCat::Publish,
            _ => return None,
        })
    }

    /// A stable lower-case label (exposition).
    pub fn label(self) -> &'static str {
        match self {
            SpanCat::Recalc => "recalc",
            SpanCat::SheetLevel => "sheet_level",
            SpanCat::Demand => "demand",
            SpanCat::WalAppend => "wal_append",
            SpanCat::WalFsync => "wal_fsync",
            SpanCat::Compaction => "compaction",
            SpanCat::Request => "request",
            SpanCat::Publish => "publish",
        }
    }
}

/// A causal coordinate: which trace a span belongs to, the span's own id,
/// and the id of the span it nests under. Four words, `Copy`, and cheap
/// enough to thread through queues and wire frames by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// High half of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low half of the 128-bit trace id.
    pub trace_lo: u64,
    /// This span's id.
    pub span_id: u64,
    /// The enclosing span's id (0 at a trace root).
    pub parent_id: u64,
}

thread_local! {
    /// The ambient context of the current thread; [`Tracer::record`]
    /// parents every span under it.
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

impl TraceContext {
    /// The absent context (all zeros).
    pub const NONE: TraceContext =
        TraceContext { trace_hi: 0, trace_lo: 0, span_id: 0, parent_id: 0 };

    /// Whether this is the absent context.
    pub fn is_none(self) -> bool {
        self.trace_hi == 0 && self.trace_lo == 0
    }

    /// The thread's current ambient context.
    pub fn current() -> TraceContext {
        CURRENT.with(Cell::get)
    }

    /// Installs `self` as the thread's ambient context until the guard
    /// drops (the previous context is restored, so guards nest).
    pub fn enter(self) -> ContextGuard {
        let prev = CURRENT.with(|c| c.replace(self));
        ContextGuard { prev }
    }
}

/// Restores the previous ambient [`TraceContext`] on drop.
pub struct ContextGuard {
    prev: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// One completed span: fixed-size, copyable, allocation-free to record.
/// (`name` becomes an owned `String` only when a snapshot crosses the
/// wire — see the service protocol.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static operation name (`"recalc"`, `"wal.append"`, …).
    pub name: &'static str,
    /// Hierarchy / subsystem tag.
    pub cat: SpanCat,
    /// High half of the owning trace id.
    pub trace_hi: u64,
    /// Low half of the owning trace id.
    pub trace_lo: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id (0 at a trace root).
    pub parent_id: u64,
    /// Start, in nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// First payload word (level index, request tag, record count…).
    pub a: u64,
    /// Second payload word (level size, byte count…).
    pub b: u64,
}

/// An owned, wire-friendly copy of a [`SpanRecord`]: snapshots and the
/// protocol layer carry these (ring records keep `&'static str` names,
/// which cannot round-trip a decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSpan {
    /// Static span name, owned.
    pub name: String,
    /// What phase the span covers.
    pub cat: SpanCat,
    /// High half of the owning trace id.
    pub trace_hi: u64,
    /// Low half of the owning trace id.
    pub trace_lo: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id (0 at a trace root).
    pub parent_id: u64,
    /// Start stamp on the tracer clock (ns).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl From<SpanRecord> for SlowSpan {
    fn from(r: SpanRecord) -> SlowSpan {
        SlowSpan {
            name: r.name.to_string(),
            cat: r.cat,
            trace_hi: r.trace_hi,
            trace_lo: r.trace_lo,
            span_id: r.span_id,
            parent_id: r.parent_id,
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            a: r.a,
            b: r.b,
        }
    }
}

/// A bounded snapshot of the tracer's two rings, ready for exposition
/// ([`crate::MetricsSnapshot`]-style owned copies). Sizes are bounded by
/// the ring capacities, so a dump can never exceed
/// `span_capacity + slow_capacity` spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// The main ring, oldest-first.
    pub recent: Vec<SlowSpan>,
    /// The slow-op log, oldest-first. Slow *requests* retain their full
    /// subtree here (every same-trace span still in the main ring is
    /// copied alongside the root), so a slow request stays explainable
    /// after the main ring has moved on.
    pub slow: Vec<SlowSpan>,
}

impl TraceDump {
    /// Total spans across both rings.
    pub fn span_count(&self) -> usize {
        self.recent.len() + self.slow.len()
    }

    /// The direct children of `parent` among `spans` (tree reconstruction
    /// helper: match on trace id + parent pointer).
    pub fn children_of<'a>(spans: &'a [SlowSpan], parent: &SlowSpan) -> Vec<&'a SlowSpan> {
        spans
            .iter()
            .filter(|s| {
                s.trace_hi == parent.trace_hi
                    && s.trace_lo == parent.trace_lo
                    && s.parent_id == parent.span_id
            })
            .collect()
    }
}

/// The injected time source (à la the engine's `EvalClock`).
#[derive(Debug, Clone)]
pub enum ObsClock {
    /// Real monotonic time, anchored at tracer construction.
    Monotonic,
    /// A shared nanosecond counter the caller advances (deterministic
    /// tests).
    Manual(Arc<AtomicU64>),
}

/// Tracer sizing and clock options.
#[derive(Debug, Clone)]
pub struct TracerOptions {
    /// Capacity of the main span ring (0 disables span recording).
    pub span_capacity: usize,
    /// Capacity of the slow-op ring.
    pub slow_capacity: usize,
    /// Spans with `dur_ns >= slow_threshold_ns` are copied into the
    /// slow-op ring.
    pub slow_threshold_ns: u64,
    /// The time source.
    pub clock: ObsClock,
    /// Seed for the splitmix64 trace/span id stream. A fixed seed (plus a
    /// [`ObsClock::Manual`] clock) makes span trees bit-reproducible.
    pub id_seed: u64,
}

impl Default for TracerOptions {
    fn default() -> Self {
        TracerOptions {
            span_capacity: 1024,
            slow_capacity: 64,
            slow_threshold_ns: 10_000_000, // 10 ms
            clock: ObsClock::Monotonic,
            id_seed: 0,
        }
    }
}

/// A fixed-capacity overwrite-oldest ring. The buffer is reserved up
/// front; pushes never allocate.
struct Ring {
    buf: Vec<SpanRecord>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring { buf: Vec::with_capacity(cap), cap, head: 0 }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(rec); // within reserved capacity: no allocation
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Records oldest-first (allocates; cold path).
    fn to_vec(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

enum ClockSource {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

struct TracerInner {
    clock: ClockSource,
    threshold_ns: u64,
    /// splitmix64 state for trace/span ids (advanced by the golden gamma
    /// per draw; one atomic add + a few shifts, allocation-free).
    ids: AtomicU64,
    ring: Mutex<Ring>,
    slow: Mutex<Ring>,
}

/// splitmix64's increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 output mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The span tracer. Cloning shares the rings; recording is a mutex-guarded
/// copy into pre-allocated storage.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with the given options.
    pub fn new(opts: TracerOptions) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                clock: match opts.clock {
                    ObsClock::Monotonic => ClockSource::Monotonic(Instant::now()),
                    ObsClock::Manual(c) => ClockSource::Manual(c),
                },
                threshold_ns: opts.slow_threshold_ns,
                ids: AtomicU64::new(opts.id_seed),
                ring: Mutex::new(Ring::new(opts.span_capacity)),
                slow: Mutex::new(Ring::new(opts.slow_capacity)),
            }),
        }
    }

    /// Nanoseconds on the tracer's clock.
    pub fn now_ns(&self) -> u64 {
        match &self.inner.clock {
            ClockSource::Monotonic(origin) => {
                u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            ClockSource::Manual(c) => c.load(Ordering::Relaxed),
        }
    }

    /// Draws one non-zero id from the splitmix64 stream.
    fn next_id(&self) -> u64 {
        let z = mix(self.inner.ids.fetch_add(GAMMA, Ordering::Relaxed).wrapping_add(GAMMA));
        if z == 0 {
            GAMMA // 0 means "absent" everywhere; remap the one bad draw
        } else {
            z
        }
    }

    /// A fresh root context: new 128-bit trace id, new span id, no parent.
    pub fn new_root(&self) -> TraceContext {
        TraceContext {
            trace_hi: self.next_id(),
            trace_lo: self.next_id(),
            span_id: self.next_id(),
            parent_id: 0,
        }
    }

    /// A child of `parent`: same trace, fresh span id, parented under
    /// `parent`'s span. A `NONE` parent starts a fresh root instead, so
    /// every span belongs to *some* trace.
    pub fn child_of(&self, parent: TraceContext) -> TraceContext {
        if parent.is_none() {
            return self.new_root();
        }
        TraceContext {
            trace_hi: parent.trace_hi,
            trace_lo: parent.trace_lo,
            span_id: self.next_id(),
            parent_id: parent.span_id,
        }
    }

    /// Records a completed span under the thread's ambient context (a
    /// fresh root when no context is installed). Allocation-free: both
    /// rings are pre-allocated and overwrite their oldest entry when full.
    pub fn record(
        &self,
        name: &'static str,
        cat: SpanCat,
        start_ns: u64,
        dur_ns: u64,
        a: u64,
        b: u64,
    ) {
        let ctx = self.child_of(TraceContext::current());
        self.record_at(name, cat, ctx, start_ns, dur_ns, a, b);
    }

    /// Closes the region that began at `start_ns` (a [`Tracer::now_ns`]
    /// stamp): reads the clock once, records the span under the ambient
    /// context like [`Tracer::record`], and returns the duration — the
    /// number a latency histogram of the same region is fed, so span and
    /// sample cannot disagree.
    pub fn record_since(
        &self,
        name: &'static str,
        cat: SpanCat,
        start_ns: u64,
        a: u64,
        b: u64,
    ) -> u64 {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.record(name, cat, start_ns, dur_ns, a, b);
        dur_ns
    }

    /// Records a completed span at an explicit causal coordinate (the
    /// span takes `ctx.span_id`; its parent is `ctx.parent_id`).
    /// Allocation-free like [`Tracer::record`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_at(
        &self,
        name: &'static str,
        cat: SpanCat,
        ctx: TraceContext,
        start_ns: u64,
        dur_ns: u64,
        a: u64,
        b: u64,
    ) {
        let rec = SpanRecord {
            name,
            cat,
            trace_hi: ctx.trace_hi,
            trace_lo: ctx.trace_lo,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            start_ns,
            dur_ns,
            a,
            b,
        };
        self.inner.ring.lock().unwrap_or_else(PoisonError::into_inner).push(rec);
        if dur_ns >= self.inner.threshold_ns {
            let mut slow = self.inner.slow.lock().unwrap_or_else(PoisonError::into_inner);
            if rec.cat == SpanCat::Request && !ctx.is_none() {
                // A slow request keeps its full subtree: copy every
                // same-trace span still in the main ring (they were
                // recorded before their root, so they are already there).
                // Bounded by the main ring's capacity; allocation-free
                // (the slow ring is pre-allocated too).
                let ring = self.inner.ring.lock().unwrap_or_else(PoisonError::into_inner);
                for r in &ring.buf {
                    if r.trace_hi == rec.trace_hi
                        && r.trace_lo == rec.trace_lo
                        && r.span_id != rec.span_id
                    {
                        slow.push(*r);
                    }
                }
            }
            slow.push(rec);
        }
    }

    /// Starts a tree-building RAII span: allocates a child context of the
    /// thread's ambient context, installs it ambiently (so spans recorded
    /// on this thread nest under it), and records itself when finished
    /// ([`SpanGuard::finish`]) or dropped.
    pub fn span_guard(&self, name: &'static str, cat: SpanCat) -> SpanGuard {
        self.span_guard_under(name, cat, TraceContext::current())
    }

    /// [`Tracer::span_guard`] with an explicit parent context (wire
    /// propagation: the parent arrived by value, not ambiently).
    pub fn span_guard_under(
        &self,
        name: &'static str,
        cat: SpanCat,
        parent: TraceContext,
    ) -> SpanGuard {
        let ctx = self.child_of(parent);
        let prev = CURRENT.with(|c| c.replace(ctx));
        SpanGuard {
            tracer: self.clone(),
            name,
            cat,
            ctx,
            prev,
            start_ns: self.now_ns(),
            closed: None,
            a: 0,
            b: 0,
        }
    }

    /// The main ring, oldest-first (cold; allocates the output).
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.inner.ring.lock().unwrap_or_else(PoisonError::into_inner).to_vec()
    }

    /// The slow-op log, oldest-first (cold; allocates the output).
    pub fn slow(&self) -> Vec<SpanRecord> {
        self.inner.slow.lock().unwrap_or_else(PoisonError::into_inner).to_vec()
    }

    /// An owned snapshot of both rings (cold; allocates the output).
    pub fn dump(&self) -> TraceDump {
        TraceDump {
            recent: self.recent().into_iter().map(SlowSpan::from).collect(),
            slow: self.slow().into_iter().map(SlowSpan::from).collect(),
        }
    }
}

/// A tree-building RAII span (see [`Tracer::span_guard`]): owns a
/// [`TraceContext`], keeps it ambient on the creating thread for its
/// lifetime, and records itself when finished or dropped. Owns a tracer
/// clone (one Arc bump) so it can outlive the borrow it was created from.
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    cat: SpanCat,
    ctx: TraceContext,
    prev: TraceContext,
    start_ns: u64,
    /// The duration recorded, once the span has closed.
    closed: Option<u64>,
    /// First payload word, recorded when the span closes.
    pub a: u64,
    /// Second payload word, recorded when the span closes.
    pub b: u64,
}

impl SpanGuard {
    /// The guard's causal coordinate (thread it through a queue to parent
    /// work happening on another thread under this span).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Closes the span now and returns the duration it recorded — what a
    /// latency histogram of the same region is fed.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    /// Restores the previous ambient context, reads the clock once and
    /// records the span; a second call only repeats the duration.
    fn close(&mut self) -> u64 {
        if let Some(dur) = self.closed {
            return dur;
        }
        CURRENT.with(|c| c.set(self.prev));
        let dur = self.tracer.now_ns().saturating_sub(self.start_ns);
        self.tracer.record_at(self.name, self.cat, self.ctx, self.start_ns, dur, self.a, self.b);
        self.closed = Some(dur);
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Tracer, Arc<AtomicU64>) {
        let clock = Arc::new(AtomicU64::new(0));
        let t = Tracer::new(TracerOptions {
            span_capacity: 4,
            slow_capacity: 2,
            slow_threshold_ns: 100,
            clock: ObsClock::Manual(clock.clone()),
            id_seed: 42,
        });
        (t, clock)
    }

    #[test]
    fn ring_overwrites_oldest() {
        let (t, _) = manual();
        for i in 0..6u64 {
            t.record("op", SpanCat::WalAppend, i, 1, i, 0);
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent.iter().map(|r| r.a).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn slow_log_catches_threshold_crossers() {
        let (t, _) = manual();
        t.record("fast", SpanCat::WalAppend, 0, 99, 0, 0);
        t.record("slow1", SpanCat::WalFsync, 0, 100, 0, 0);
        t.record("slow2", SpanCat::Compaction, 0, 5000, 0, 0);
        t.record("slow3", SpanCat::Recalc, 0, 200, 0, 0);
        let slow = t.slow();
        assert_eq!(slow.len(), 2, "slow ring capacity bounds the log");
        assert_eq!(slow[0].name, "slow2");
        assert_eq!(slow[1].name, "slow3");
    }

    #[test]
    fn guard_span_measures_manual_clock() {
        let (t, clock) = manual();
        let mut guard = t.span_guard("work", SpanCat::Recalc);
        clock.store(100, Ordering::Relaxed);
        let leaf_start = t.now_ns();
        clock.store(250, Ordering::Relaxed);
        assert_eq!(t.record_since("leaf", SpanCat::SheetLevel, leaf_start, 7, 0), 150);
        guard.a = 42;
        assert_eq!(guard.finish(), 250);
        assert_eq!(TraceContext::current(), TraceContext::NONE, "finish restores the context");
        let recent = t.recent();
        assert_eq!(recent.len(), 2, "a finished guard records once, not again at drop");
        let (leaf, work) = (&recent[0], &recent[1]);
        assert_eq!((leaf.start_ns, leaf.dur_ns, leaf.a), (100, 150, 7));
        assert_eq!((work.start_ns, work.dur_ns, work.a), (0, 250, 42));
        assert_eq!(leaf.parent_id, work.span_id);
        // Both are ≥ threshold 100: the slow log has them too.
        assert_eq!(t.slow().len(), 2);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let clock = Arc::new(AtomicU64::new(0));
        let t = Tracer::new(TracerOptions {
            span_capacity: 0,
            slow_capacity: 0,
            slow_threshold_ns: 0,
            clock: ObsClock::Manual(clock),
            id_seed: 0,
        });
        t.record("op", SpanCat::Request, 0, u64::MAX, 0, 0);
        assert!(t.recent().is_empty());
        assert!(t.slow().is_empty());
    }

    #[test]
    fn categories_round_trip() {
        for b in 0..=8u8 {
            match SpanCat::from_u8(b) {
                Some(cat) => assert_eq!(cat as u8, b),
                None => assert_eq!(b, 2, "only the retired intra-sheet level is unassigned"),
            }
        }
    }

    #[test]
    fn span_guards_build_a_tree() {
        let (t, _) = manual();
        {
            let root = t.span_guard("root", SpanCat::Request);
            assert_eq!(TraceContext::current(), root.context());
            {
                let child = t.span_guard("child", SpanCat::Recalc);
                assert_eq!(child.context().parent_id, root.context().span_id);
                assert_eq!(child.context().trace_hi, root.context().trace_hi);
                // A plain record on this thread parents under the child.
                t.record("leaf", SpanCat::SheetLevel, 0, 1, 0, 0);
            }
            // The child restored the root's ambient context.
            assert_eq!(TraceContext::current(), root.context());
        }
        assert_eq!(TraceContext::current(), TraceContext::NONE);
        let recent = t.recent();
        assert_eq!(recent.len(), 3);
        // Recorded leaf-first (drop order): leaf, child, root.
        let (leaf, child, root) = (&recent[0], &recent[1], &recent[2]);
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(leaf.parent_id, child.span_id);
        assert!(recent.iter().all(|r| r.trace_hi == root.trace_hi && r.trace_lo == root.trace_lo));
    }

    #[test]
    fn fixed_seed_reproduces_span_ids() {
        let run = || {
            let (t, _) = manual();
            let root = t.new_root();
            let _g = root.enter();
            t.record("a", SpanCat::Recalc, 0, 1, 0, 0);
            t.record("b", SpanCat::Demand, 0, 1, 0, 0);
            t.recent()
        };
        assert_eq!(run(), run(), "same seed + same script must yield identical records");
    }

    #[test]
    fn explicit_context_round_trips_by_value() {
        let (t, _) = manual();
        let parent = t.new_root();
        // Simulate a queue hop: the context crosses by value, then work
        // on the "other thread" enters it.
        let carried = parent;
        {
            let _g = carried.enter();
            t.record("remote", SpanCat::WalAppend, 0, 1, 0, 0);
        }
        let recent = t.recent();
        assert_eq!(recent[0].parent_id, parent.span_id);
        assert_eq!(recent[0].trace_lo, parent.trace_lo);
    }

    #[test]
    fn slow_request_retains_its_subtree() {
        let clock = Arc::new(AtomicU64::new(0));
        let t = Tracer::new(TracerOptions {
            span_capacity: 16,
            slow_capacity: 16,
            slow_threshold_ns: 100,
            clock: ObsClock::Manual(clock),
            id_seed: 7,
        });
        let root = t.new_root();
        {
            let _g = root.enter();
            // Fast children: below the threshold on their own.
            t.record("child1", SpanCat::Recalc, 0, 10, 0, 0);
            t.record("child2", SpanCat::WalAppend, 10, 10, 0, 0);
        }
        // The root crosses the threshold: its whole subtree lands in the
        // slow log, children included.
        t.record_at("request", SpanCat::Request, root, 0, 500, 0, 0);
        let slow = t.slow();
        assert_eq!(slow.len(), 3, "{slow:?}");
        assert!(slow.iter().any(|s| s.name == "child1"));
        assert!(slow.iter().any(|s| s.name == "child2"));
        assert_eq!(slow.last().unwrap().name, "request");
    }
}
