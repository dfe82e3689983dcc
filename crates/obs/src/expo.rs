//! Exposition: rendering a [`MetricsSnapshot`] as Prometheus text format
//! and a [`TraceDump`] as Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto). Both renderers are cold paths — they
//! run when a snapshot is requested, never while recording.

use crate::metrics::{bucket_upper, MetricsSnapshot};
use crate::trace::{SlowSpan, TraceDump};
use std::fmt::Write as _;

fn write_name(out: &mut String, name: &str, labels: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        let _ = write!(out, "{{{labels}}}");
    }
}

/// `labels` plus one more `key="value"` pair, comma-joined.
fn labels_plus(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="…"}` series plus `_sum` / `_count`, and the derived
    /// quantiles as `_p50` / `_p90` / `_p99` gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            write_name(&mut out, &c.name, &c.labels);
            let _ = writeln!(out, " {}", c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            write_name(&mut out, &g.name, &g.labels);
            let _ = writeln!(out, " {}", g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cumulative = 0u64;
            for &(b, n) in &h.buckets {
                cumulative += n;
                let le = labels_plus(&h.labels, &format!("le=\"{}\"", bucket_upper(b)));
                let _ = writeln!(out, "{}_bucket{{{le}}} {cumulative}", h.name);
            }
            let le = labels_plus(&h.labels, "le=\"+Inf\"");
            let _ = writeln!(out, "{}_bucket{{{le}}} {}", h.name, h.count);
            write_name(&mut out, &format!("{}_sum", h.name), &h.labels);
            let _ = writeln!(out, " {}", h.sum);
            write_name(&mut out, &format!("{}_count", h.name), &h.labels);
            let _ = writeln!(out, " {}", h.count);
            for (q, v) in [("p50", h.p50), ("p90", h.p90), ("p99", h.p99)] {
                write_name(&mut out, &format!("{}_{q}", h.name), &h.labels);
                let _ = writeln!(out, " {v}");
            }
        }
        out
    }
}

/// One span as a Chrome `trace_event` complete event (`"ph":"X"`).
/// Timestamps are microseconds (the format's unit); sub-µs durations
/// render fractionally so nothing rounds to invisible.
fn write_chrome_event(out: &mut String, s: &SlowSpan) {
    let ts = s.start_ns as f64 / 1000.0;
    let dur = s.dur_ns as f64 / 1000.0;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
         \"pid\":1,\"tid\":1,\"id\":\"{:016x}{:016x}\",\
         \"args\":{{\"span_id\":{},\"parent_id\":{},\"a\":{},\"b\":{}}}}}",
        json_escape(&s.name),
        s.cat.label(),
        s.trace_hi,
        s.trace_lo,
        s.span_id,
        s.parent_id,
        s.a,
        s.b
    );
}

impl TraceDump {
    /// Renders the dump in Chrome `trace_event` JSON (object form, one
    /// complete event per span; the 128-bit trace id travels as the
    /// event `id`, the span/parent ids in `args`). The output loads in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.recent.iter().chain(self.slow.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_chrome_event(&mut out, s);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::Registry;
    use crate::trace::SpanCat;

    #[test]
    fn prometheus_text_has_types_buckets_and_quantiles() {
        let r = Registry::new();
        r.counter("taco_ops_total").add(12);
        r.gauge_with("taco_graph_edges", "book=\"demo\"").set(34);
        let h = r.histogram("taco_recalc_ns");
        h.record(5);
        h.record(900);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE taco_ops_total counter"));
        assert!(text.contains("taco_ops_total 12"));
        assert!(text.contains("taco_graph_edges{book=\"demo\"} 34"));
        assert!(text.contains("taco_recalc_ns_bucket{le=\"7\"} 1"));
        assert!(text.contains("taco_recalc_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("taco_recalc_ns_count 2"));
        assert!(text.contains("taco_recalc_ns_sum 905"));
        assert!(text.contains("taco_recalc_ns_p99 1023"));
    }

    #[test]
    fn chrome_trace_export_is_balanced_and_complete() {
        use crate::trace::{ObsClock, Tracer, TracerOptions};
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let t = Tracer::new(TracerOptions {
            clock: ObsClock::Manual(Arc::new(AtomicU64::new(0))),
            slow_threshold_ns: 1_000,
            id_seed: 9,
            ..TracerOptions::default()
        });
        t.record("fast", SpanCat::Recalc, 0, 10, 1, 2);
        t.record("slow\"quoted\"\\", SpanCat::WalFsync, 10, 5_000, 3, 4);
        let dump = t.dump();
        let json = dump.to_chrome_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            dump.span_count(),
            "one complete event per span: {json}"
        );
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("slow\\\"quoted\\\"\\\\"), "names are escaped: {json}");
    }
}
