//! WAL observability: the pre-registered handle bundle a [`WalWriter`]
//! records through once attached. Registration (name lookups, handle
//! allocation) happens here, on the cold attach path; the WAL hot paths
//! then record through plain field access — counter bumps, histogram
//! bumps, and fixed-size span pushes, all allocation-free.
//!
//! [`WalWriter`]: crate::WalWriter

use taco_obs::{Counter, Gauge, Histogram, Obs, SpanCat};

/// Metric and tracer handles for one write-ahead log.
pub struct WalObs {
    /// `taco_wal_records_total` — records appended.
    pub records: Counter,
    /// `taco_wal_bytes_total` — frame bytes appended (header excluded).
    pub bytes: Counter,
    /// `taco_wal_fsyncs_total` — explicit fsync points hit.
    pub fsyncs: Counter,
    /// `taco_wal_resets_total` — compaction fold points (log truncations).
    pub resets: Counter,
    /// `taco_wal_append_ns` — per-append latency.
    pub append_ns: Histogram,
    /// `taco_wal_fsync_ns` — per-fsync latency.
    pub fsync_ns: Histogram,
    /// `taco_wal_torn_recoveries_total` — reopens that truncated a torn
    /// tail (bumped by the owner that observed the replay).
    pub torn_recoveries: Counter,
    /// `taco_wal_epoch` — the replay epoch stamped into appended
    /// records (set by [`WalWriter::set_epoch`]).
    ///
    /// [`WalWriter::set_epoch`]: crate::WalWriter::set_epoch
    pub epoch: Gauge,
    /// `taco_wal_compactions_total` — WAL folds into fresh snapshots.
    compactions: Counter,
    /// `taco_compaction_ns` — snapshot-write + log-reset latency.
    compaction_ns: Histogram,
    tracer: taco_obs::Tracer,
}

impl WalObs {
    /// Registers the WAL metric set against `obs` (idempotent: a second
    /// bundle from the same hub shares the same underlying metrics).
    pub fn new(obs: &Obs) -> WalObs {
        let m = &obs.metrics;
        WalObs {
            records: m.counter("taco_wal_records_total"),
            bytes: m.counter("taco_wal_bytes_total"),
            fsyncs: m.counter("taco_wal_fsyncs_total"),
            resets: m.counter("taco_wal_resets_total"),
            append_ns: m.histogram("taco_wal_append_ns"),
            fsync_ns: m.histogram("taco_wal_fsync_ns"),
            torn_recoveries: m.counter("taco_wal_torn_recoveries_total"),
            epoch: m.gauge("taco_wal_epoch"),
            compactions: m.counter("taco_wal_compactions_total"),
            compaction_ns: m.histogram("taco_compaction_ns"),
            tracer: obs.tracer.clone(),
        }
    }

    /// Records one append of `frame_bytes` that began at `start_ns`.
    pub(crate) fn on_append(&self, start_ns: u64, frame_bytes: u64) {
        self.records.inc();
        self.bytes.add(frame_bytes);
        let dur =
            self.tracer.record_since("wal.append", SpanCat::WalAppend, start_ns, frame_bytes, 0);
        self.append_ns.record(dur);
    }

    /// Records one fsync that began at `start_ns`.
    pub(crate) fn on_fsync(&self, start_ns: u64) {
        self.fsyncs.inc();
        let dur = self.tracer.record_since("wal.fsync", SpanCat::WalFsync, start_ns, 0, 0);
        self.fsync_ns.record(dur);
    }

    /// Records one compaction of `folded` records that began at
    /// `start_ns` and ended with the log's truncation.
    pub(crate) fn on_compaction(&self, start_ns: u64, folded: u64) {
        self.compactions.inc();
        let dur = self.tracer.record_since("wal.compact", SpanCat::Compaction, start_ns, folded, 0);
        self.compaction_ns.record(dur);
    }

    /// The hub clock: the start stamp of a timed region.
    pub(crate) fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }
}
