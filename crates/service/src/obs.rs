//! Service observability: the one handle bundle a [`Registry`] and its
//! writer threads share. Registration (per-operation latency
//! histograms, refusal counters, load gauges) happens once at registry
//! construction; request dispatch then records through plain field access
//! and never formats a label or allocates.
//!
//! [`Registry`]: crate::registry::Registry

use crate::protocol::{OP_LABELS, OP_NAMES};
use std::sync::Arc;
use taco_obs::{Counter, Gauge, Histogram, Obs, SpanCat, TraceContext, Tracer};

/// Pre-registered handles for the service layer, indexed by request tag.
pub(crate) struct ServiceObs {
    /// The hub itself — workbooks registered later attach to it, and the
    /// `Metrics` request snapshots it.
    pub(crate) hub: Arc<Obs>,
    /// `taco_request_ns{op="..."}` — one latency histogram per operation.
    req_ns: Vec<Histogram>,
    /// `taco_coalesce_batch` — writes absorbed per worker batch.
    pub(crate) coalesce_batch: Histogram,
    /// `taco_sessions` / `taco_connections` — current load gauges.
    pub(crate) sessions: Gauge,
    pub(crate) connections: Gauge,
    /// Refusal counters — the only tally of these events: the `Stats`
    /// request reads them back into [`ServiceStats`].
    ///
    /// [`ServiceStats`]: crate::protocol::ServiceStats
    pub(crate) busy_rejected: Counter,
    pub(crate) auth_failures: Counter,
    pub(crate) scope_denials: Counter,
    /// `taco_degraded_workbooks` — workbooks currently read-only after a
    /// storage fault (a WAL append or snapshot save that failed); falls
    /// back to 0 as `Save` heals them.
    pub(crate) degraded_books: Gauge,
    /// `taco_deadline_expired_total` — requests answered with
    /// [`ServiceError::DeadlineExceeded`].
    ///
    /// [`ServiceError::DeadlineExceeded`]: crate::ServiceError::DeadlineExceeded
    pub(crate) deadline_expired: Counter,
    /// `taco_snapshot_pages_copied_total` — cell-store pages copied by
    /// publications (every other page is shared with the previous epoch).
    pub(crate) pages_copied: Counter,
    pub(crate) tracer: Tracer,
}

impl ServiceObs {
    /// Registers the service metric set against `hub`.
    pub(crate) fn new(hub: Arc<Obs>) -> ServiceObs {
        let m = &hub.metrics;
        let req_ns =
            OP_LABELS.iter().map(|labels| m.histogram_with("taco_request_ns", labels)).collect();
        ServiceObs {
            req_ns,
            coalesce_batch: m.histogram("taco_coalesce_batch"),
            sessions: m.gauge("taco_sessions"),
            connections: m.gauge("taco_connections"),
            busy_rejected: m.counter("taco_busy_rejected_total"),
            auth_failures: m.counter("taco_auth_failures_total"),
            scope_denials: m.counter("taco_scope_denials_total"),
            degraded_books: m.gauge("taco_degraded_workbooks"),
            deadline_expired: m.counter("taco_deadline_expired_total"),
            pages_copied: m.counter("taco_snapshot_pages_copied_total"),
            tracer: hub.tracer.clone(),
            hub,
        }
    }

    /// The root span context for one request: a child of the wire-carried
    /// context when the client sent a traced wrapper, else a fresh root.
    pub(crate) fn request_ctx(&self, wire: Option<TraceContext>) -> TraceContext {
        match wire {
            Some(w) => self.tracer.child_of(w),
            None => self.tracer.new_root(),
        }
    }

    /// Records one completed request, begun at `start_ns` on the hub
    /// clock: a `Request` span at `ctx` — the root every span the request
    /// caused (engine recalc spans, WAL appends, publication) nests under —
    /// and its duration into the per-operation latency histogram.
    /// Payload words: `a` = request tag, `b` = wire payload size in bytes
    /// (0 for in-process execution).
    pub(crate) fn on_request(&self, tag: u8, start_ns: u64, ctx: TraceContext, payload_len: u64) {
        let dur = self.tracer.now_ns().saturating_sub(start_ns);
        if let Some(h) = self.req_ns.get(tag as usize) {
            h.record(dur);
        }
        let name = OP_NAMES.get(tag as usize).copied().unwrap_or("unknown");
        self.tracer.record_at(
            name,
            SpanCat::Request,
            ctx,
            start_ns,
            dur,
            u64::from(tag),
            payload_len,
        );
    }
}
