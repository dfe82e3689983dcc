//! `taco_obs` — the observability layer of the TACO serving path: a
//! metrics registry of sharded atomic counters, gauges, and log₂-bucketed
//! histograms, plus a bounded ring-buffer span tracer with an injected
//! monotonic clock.
//!
//! The design constraints come from the instrumented code, not from this
//! crate: the engine's recalc loop and the query paths are proven
//! allocation-free by a counting `#[global_allocator]` harness, and they
//! must stay that way with metrics attached. Every *record* operation
//! here — [`Counter::add`], [`Gauge::set`], [`Histogram::record`],
//! [`Tracer::record`] — therefore performs **zero heap allocations**:
//!
//! - counters are sharded over cache-line-padded atomics; a thread picks
//!   its shard once via a `const`-initialised thread-local (no lazy-TLS
//!   allocation) and afterwards records with one relaxed `fetch_add`;
//! - histograms bucket by `64 − leading_zeros(v)` into 64 fixed atomic
//!   buckets — recording is three relaxed `fetch_add`s, and p50/p90/p99
//!   are derived from the buckets only at snapshot time;
//! - spans write into a **pre-allocated** ring of fixed-size records
//!   (`&'static str` name, a category byte, two `u64` payload words)
//!   under a mutex held for the copy only; the ring overwrites its
//!   oldest entry when full and never grows. Spans slower than a
//!   configurable threshold are additionally copied into a separate
//!   slow-op ring so rare stalls survive ring churn.
//!
//! Registration ([`Registry::counter`] and friends) is the cold path: it
//! allocates the name, the shard block, and the handle once, up front, so
//! the hot path touches only pre-registered state. Handles are cheap
//! `Arc` clones; instrumented layers hold a struct of them and record
//! through field access.
//!
//! Time is injected, à la the engine's `EvalClock`: [`ObsClock::Monotonic`]
//! anchors an `Instant` at construction, [`ObsClock::Manual`] reads a
//! shared atomic nanosecond counter so tests can drive spans
//! deterministically. That clock is the only one an instrumented region
//! reads: [`Tracer::now_ns`] stamps its start, one closing call
//! ([`Tracer::record_since`], [`SpanGuard::finish`]) reads the end,
//! records the span and returns the duration, and that number is the
//! sample the region's `*_ns` histogram gets.
//!
//! Exposition is pull-based: [`Registry::snapshot`] freezes every metric
//! into a plain-data [`MetricsSnapshot`], renderable as Prometheus text
//! ([`MetricsSnapshot::to_prometheus`]) and encodable on the service wire
//! by `taco_service` (this crate stays dependency-free; the codecs live
//! with the protocol).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, GaugeValue, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot,
    Registry, HIST_BUCKETS,
};
pub use trace::{
    ContextGuard, ObsClock, SlowSpan, SpanCat, SpanGuard, SpanRecord, TraceContext, TraceDump,
    Tracer, TracerOptions,
};

use std::sync::Arc;

/// Construction-time options for an [`Obs`] hub.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Span tracer sizing, threshold, and clock.
    pub tracer: TracerOptions,
}

/// The observability hub one serving process shares across its layers: a
/// metrics [`Registry`] and a span [`Tracer`]. Layers receive an
/// `&Arc<Obs>`, register their handles once, and record through them.
pub struct Obs {
    /// The metrics registry (counters, gauges, histograms).
    pub metrics: Registry,
    /// The span tracer (bounded ring + slow-op log).
    pub tracer: Tracer,
}

impl Obs {
    /// A hub with the given options.
    pub fn new(opts: ObsOptions) -> Arc<Obs> {
        Arc::new(Obs { metrics: Registry::new(), tracer: Tracer::new(opts.tracer) })
    }

    /// A hub with default options (monotonic clock, 1024-span ring,
    /// 64-entry slow log, 10 ms slow threshold).
    pub fn new_default() -> Arc<Obs> {
        Obs::new(ObsOptions::default())
    }

    /// Freezes every metric plus the slow-op log into one snapshot (the
    /// payload of the wire `Metrics` request).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.slow_spans = self.tracer.slow().into_iter().map(SlowSpan::from).collect();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_snapshot_includes_slow_spans() {
        let clock = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let obs = Obs::new(ObsOptions {
            tracer: TracerOptions {
                clock: ObsClock::Manual(clock.clone()),
                slow_threshold_ns: 100,
                ..TracerOptions::default()
            },
        });
        obs.metrics.counter("taco_test_total").add(3);
        obs.tracer.record("fast", SpanCat::Request, 0, 50, 0, 0);
        obs.tracer.record("slow", SpanCat::Request, 0, 500, 7, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counters.iter().find(|c| c.name == "taco_test_total").unwrap().value, 3);
        assert_eq!(snap.slow_spans.len(), 1);
        assert_eq!(snap.slow_spans[0].name, "slow");
        assert_eq!(snap.slow_spans[0].a, 7);
    }
}
