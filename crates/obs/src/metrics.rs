//! The metrics registry: sharded counters, gauges, and log₂ histograms.
//!
//! Identity is `(name, labels)`: registering the same pair twice returns
//! a handle to the same underlying metric, so independent layers can
//! share a counter without coordinating. Names follow Prometheus
//! conventions (`taco_wal_fsyncs_total`); `labels` is a pre-rendered
//! `key="value"` list (built once at registration — never on the record
//! path).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of counter shards. A power of two so the thread-slot mapping is
/// a mask; 8 covers the worker counts the engine actually spawns.
const SHARDS: usize = 8;

/// Number of histogram buckets: one per possible `u64` magnitude (bucket
/// `b` holds values with bit length `b`, i.e. `[2^(b−1), 2^b)`; bucket 0
/// holds exactly `0`).
pub const HIST_BUCKETS: usize = 64;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard, assigned on first use. `const`
    /// initialisation keeps first access allocation-free.
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            s.set(v);
            v
        }
    })
}

/// One cache line per shard so concurrent recorders do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded across cache lines.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    fn new() -> Self {
        Counter { shards: Arc::new(Default::default()) }
    }

    /// Adds `n` (one relaxed `fetch_add` on this thread's shard).
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed instantaneous value (in-flight sessions, live graph sizes).
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: Arc::new(AtomicI64::new(0)) }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in cells/bytes). Recording is three relaxed `fetch_add`s;
/// quantiles are derived from the bucket counts at snapshot time.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize; // bit length; 0 → 0
        self.inner.buckets[b.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    fn freeze(&self, name: &str, labels: &str) -> HistogramSnapshot {
        let buckets: Vec<(u8, u64)> = self
            .inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        let mut snap = HistogramSnapshot {
            name: name.to_string(),
            labels: labels.to_string(),
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.inner.sum.load(Ordering::Relaxed),
            buckets,
            p50: 0,
            p90: 0,
            p99: 0,
        };
        snap.p50 = snap.quantile(0.50);
        snap.p90 = snap.quantile(0.90);
        snap.p99 = snap.quantile(0.99);
        snap
    }
}

/// Upper bound of log₂ bucket `b` (inclusive): the largest value with bit
/// length `b`. The last bucket (63) also absorbs bit-length-64 values, so
/// its bound is `u64::MAX`.
pub(crate) fn bucket_upper(b: u8) -> u64 {
    match b {
        0 => 0,
        63.. => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Frozen counter state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Pre-rendered `key="value"` label list (may be empty).
    pub labels: String,
    /// The value.
    pub value: u64,
}

/// Frozen gauge state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeValue {
    /// Metric name.
    pub name: String,
    /// Pre-rendered `key="value"` label list (may be empty).
    pub labels: String,
    /// The value.
    pub value: i64,
}

/// Frozen histogram state: sparse non-empty log₂ buckets plus derived
/// quantiles (each quantile reported as its bucket's upper bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Pre-rendered `key="value"` label list (may be empty).
    pub labels: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket index, samples)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
    /// Derived 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Derived 90th percentile (bucket upper bound).
    pub p90: u64,
    /// Derived 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (`0.0..=1.0`), as the upper bound of the
    /// bucket containing the `⌈q·count⌉`-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(self.buckets.last().map_or(0, |&(b, _)| b))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen view of the whole registry (plus the tracer's slow-op log
/// when taken through [`crate::Obs::snapshot`]). Plain data: renderable
/// ([`MetricsSnapshot::to_prometheus`]) and wire-encodable by the service
/// protocol.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters, in registration order.
    pub counters: Vec<MetricValue>,
    /// All gauges, in registration order.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// The slow-op log, oldest first (empty unless taken via
    /// [`crate::Obs::snapshot`]).
    pub slow_spans: Vec<crate::trace::SlowSpan>,
}

impl MetricsSnapshot {
    /// The counter named `name` (first label set), if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The gauge named `name` (first label set), if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The histogram named `name` with exactly `labels`, if present.
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name && h.labels == labels)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    labels: String,
    metric: Metric,
}

struct RegistryInner {
    entries: Vec<Entry>,
    /// `(name, labels)` → index into `entries` (get-or-register).
    by_key: HashMap<(String, String), usize>,
}

/// The metric registry. Cloning shares the underlying store; all methods
/// take `&self`.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Mutex::new(RegistryInner {
                entries: Vec::new(),
                by_key: HashMap::new(),
            })),
        }
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        labels: &str,
        make: impl FnOnce() -> T,
        wrap: impl FnOnce(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&i) = inner.by_key.get(&(name.to_string(), labels.to_string())) {
            return unwrap(&inner.entries[i].metric).unwrap_or_else(|| {
                panic!("metric {name}{{{labels}}} re-registered as a different kind")
            });
        }
        let handle = make();
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            labels: labels.to_string(),
            metric: wrap(handle.clone()),
        });
        inner.by_key.insert((name.to_string(), labels.to_string()), i);
        handle
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, "")
    }

    /// Registers (or retrieves) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &str) -> Counter {
        self.register(name, labels, Counter::new, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, "")
    }

    /// Registers (or retrieves) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &str) -> Gauge {
        self.register(name, labels, Gauge::new, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, "")
    }

    /// Registers (or retrieves) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &str) -> Histogram {
        self.register(name, labels, Histogram::new, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Freezes every metric. Does not include tracer spans — use
    /// [`crate::Obs::snapshot`] for the full payload.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = MetricsSnapshot::default();
        for e in &inner.entries {
            match &e.metric {
                Metric::Counter(c) => snap.counters.push(MetricValue {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    value: c.value(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeValue {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    value: g.value(),
                }),
                Metric::Histogram(h) => snap.histograms.push(h.freeze(&e.name, &e.labels)),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let r = Registry::new();
        let c = r.counter("taco_edits_total");
        c.add(5);
        let c2 = r.counter("taco_edits_total"); // same metric
        c2.inc();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4006);
        assert_eq!(r.snapshot().counter("taco_edits_total"), Some(4006));
    }

    #[test]
    fn gauges_track_in_flight() {
        let r = Registry::new();
        let g = r.gauge("taco_sessions");
        g.add(3);
        g.sub(1);
        assert_eq!(g.value(), 2);
        g.set(-7);
        assert_eq!(r.snapshot().gauge("taco_sessions"), Some(-7));
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let r = Registry::new();
        let h = r.histogram("taco_latency_ns");
        for v in [0u64, 1, 1, 3, 100, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("taco_latency_ns", "").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 0u64.wrapping_add(1 + 1 + 3 + 100 + 1000).wrapping_add(u64::MAX));
        // 0 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 100 → bucket 7;
        // 1000 → bucket 10; MAX → bucket 63.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (2, 1), (7, 1), (10, 1), (63, 1)]);
        assert_eq!(hs.quantile(0.5), bucket_upper(2)); // 4th of 7 samples
        assert_eq!(hs.p99, u64::MAX);
        assert!(hs.mean() > 0.0);
    }

    #[test]
    fn quantiles_of_empty_and_single() {
        let r = Registry::new();
        let h = r.histogram("h");
        assert_eq!(h.inner.count.load(Ordering::Relaxed), 0);
        let snap = r.snapshot().histogram("h", "").cloned().unwrap();
        assert_eq!(snap.quantile(0.99), 0);
        h.record(42);
        let snap = r.snapshot().histogram("h", "").cloned().unwrap();
        assert_eq!(snap.p50, bucket_upper(6));
        assert_eq!(snap.p99, bucket_upper(6));
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        // An empty histogram must freeze to all-zero percentiles — not
        // the floor of some bucket, not a fall-through artifact.
        let r = Registry::new();
        let _ = r.histogram_with("empty", "k=\"v\"");
        let snap = r.snapshot().histogram("empty", "k=\"v\"").cloned().unwrap();
        assert_eq!((snap.count, snap.sum), (0, 0));
        assert_eq!((snap.p50, snap.p90, snap.p99), (0, 0, 0));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 0, "q={q}");
        }
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn top_bucket_saturates_and_clamps() {
        // Values with bit length 64 (top bit set) saturate into bucket 63
        // and report `u64::MAX` as their bound — never a wrapped shift.
        let r = Registry::new();
        let h = r.histogram("sat");
        for v in [1u64 << 63, (1u64 << 63) + 1, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot().histogram("sat", "").cloned().unwrap();
        assert_eq!(snap.buckets, vec![(63, 4)]);
        assert_eq!((snap.p50, snap.p90, snap.p99), (u64::MAX, u64::MAX, u64::MAX));
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn u64_max_does_not_overflow_the_bucketing() {
        // `64 − leading_zeros(u64::MAX)` is 64 — one past the last bucket
        // index. The clamp must land it in bucket 63, not index out of
        // bounds or wrap.
        let r = Registry::new();
        let h = r.histogram("max");
        h.record(u64::MAX);
        let snap = r.snapshot().histogram("max", "").cloned().unwrap();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.buckets, vec![(63, 1)]);
        assert_eq!(snap.p50, u64::MAX);
        // And the bound helper agrees out past the end.
        assert_eq!(bucket_upper(63), u64::MAX);
        assert_eq!(bucket_upper(u8::MAX), u64::MAX);
    }

    #[test]
    fn quantile_rank_clamps_at_both_ends() {
        let r = Registry::new();
        let h = r.histogram("clamp");
        h.record(1);
        h.record(1000);
        let snap = r.snapshot().histogram("clamp", "").cloned().unwrap();
        // q=0 still picks the first sample (rank clamps up to 1)…
        assert_eq!(snap.quantile(0.0), bucket_upper(1));
        // …and q=1 the last (rank clamps down to count).
        assert_eq!(snap.quantile(1.0), bucket_upper(10));
    }

    #[test]
    fn labels_separate_metrics() {
        let r = Registry::new();
        let a = r.gauge_with("taco_graph_edges", "book=\"a\"");
        let b = r.gauge_with("taco_graph_edges", "book=\"b\"");
        a.set(1);
        b.set(2);
        let snap = r.snapshot();
        let values: Vec<i64> =
            snap.gauges.iter().filter(|g| g.name == "taco_graph_edges").map(|g| g.value).collect();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(62), (1u64 << 62) - 1);
        assert_eq!(bucket_upper(63), u64::MAX);
        assert_eq!(bucket_upper(64), u64::MAX);
    }
}
