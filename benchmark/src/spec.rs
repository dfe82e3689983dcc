//! The benchmark's fixed vocabulary: workload names, metric names with
//! unit, direction and bound, and the frozen sizes of every workload.
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`--print-spec`); a unit test keeps the two identical.

/// How long one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 25;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "graph",
        why: "paper-scale formula graphs (2.4M dependencies): build, dependents, precedents, modify; \
              core+rtree+grid dominate, parser/evaluator/store/service run only at companion size",
    },
    Workload {
        name: "recalc",
        why: "16x1024-row workbook: batch load, full recalc of ~57k formula cells, edit loop; \
              formula+engine dominate, service and store run only at companion size",
    },
    Workload {
        name: "serve_read",
        why: "95% reads, zipf 1.10, 2 closed-loop TCP clients on a 2048-row sheet; wire codec, \
              sessions and snapshot reads dominate, the writer thread is nearly idle",
    },
    Workload {
        name: "serve_write",
        why: "75% writes over TCP to a WAL-backed 2048-row sheet: decode, queue, apply, recalc, \
              WAL append, publish, reply, then reopen; the writer thread is the shared resource",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median a later change may
    /// lose before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// Printed by every workload with `--trace 0`. Every timing has the
/// widest bound the driver allows: the driver also refuses the benchmark
/// if a metric's spread across ten seeds exceeds its bound, and on this
/// shared sandbox that spread is 3–15 % in a quiet half hour and up to
/// 20 % in a noisy one (measured spreads are in the README beside each
/// bound). The two exact counts keep 1 %.
pub const END_TO_END: [Metric; 15] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("build_deps_per_s", "deps/s", "higher", 0.25),
    e2e("dependents_probes_per_s", "probes/s", "higher", 0.25),
    e2e("precedents_probes_per_s", "probes/s", "higher", 0.25),
    e2e("modify_ops_per_s", "ops/s", "higher", 0.25),
    e2e("edges_per_kdep", "edges/kdep", "lower", 0.01),
    e2e("load_records_per_s", "records/s", "higher", 0.25),
    e2e("recalc_cells_per_s", "cells/s", "higher", 0.25),
    e2e("control_us_p50", "us", "lower", 0.25),
    e2e("edit_ms_p50", "ms", "lower", 0.25),
    e2e("ops_per_s", "ops/s", "higher", 0.25),
    e2e("read_us_mean", "us", "lower", 0.25),
    e2e("write_us_mean", "us", "lower", 0.25),
    e2e("reopen_ms", "ms", "lower", 0.25),
    e2e("store_bytes_per_dep", "bytes/dep", "lower", 0.01),
];

/// Printed by every workload with `--trace 1`. Layer names are the crates.
pub const PER_LAYER: [Metric; 62] = [
    layer("rtree.bulk_load_ns_per_entry", "ns", "lower"),
    layer("rtree.insert_ns_per_entry", "ns", "lower"),
    layer("rtree.remove_ns_per_entry", "ns", "lower"),
    layer("rtree.search_ns_per_query", "ns", "lower"),
    layer("core.build_ms.enron", "ms", "lower"),
    layer("core.build_ms.github", "ms", "lower"),
    layer("core.deps", "count", "higher"),
    layer("core.edges", "count", "lower"),
    layer("core.edges_reduced.rr", "count", "higher"),
    layer("core.edges_reduced.rf", "count", "higher"),
    layer("core.edges_reduced.fr", "count", "higher"),
    layer("core.edges_reduced.ff", "count", "higher"),
    layer("core.edges_reduced.rr_chain", "count", "higher"),
    layer("core.edges_after_modify_per_kdep", "edges/kdep", "lower"),
    layer("core.dependents_ns_p50", "ns", "lower"),
    layer("core.dependents_ns_p99", "ns", "lower"),
    layer("core.dependents_ranges_mean", "count", "lower"),
    layer("core.longest_path_us_p50", "us", "lower"),
    layer("core.max_dependents_us_p50", "us", "lower"),
    layer("core.nocomp_build_ms", "ms", "lower"),
    layer("core.nocomp_longest_path_us_p50", "us", "lower"),
    layer("core.speedup_longest_path", "ratio", "higher"),
    layer("core.precedents_ns_p50", "ns", "lower"),
    layer("core.clear_us_p50", "us", "lower"),
    layer("core.readd_us_p50", "us", "lower"),
    layer("formula.parse_ns_per_formula", "ns", "lower"),
    layer("engine.apply_batch_ms", "ms", "lower"),
    layer("engine.parse_share", "ratio", "lower"),
    layer("engine.full_recalc_ms", "ms", "lower"),
    layer("engine.recalc_ns_per_cell", "ns", "lower"),
    layer("engine.recalc_ns_per_ref_cell", "ns", "lower"),
    layer("engine.control_us_p99", "us", "lower"),
    layer("engine.edit_recalc_ms_p50", "ms", "lower"),
    layer("engine.edit_ms_p99", "ms", "lower"),
    layer("engine.edit_cells_mean", "count", "lower"),
    layer("engine.bare_write_us_mean", "us", "lower"),
    layer("engine.open_ms", "ms", "lower"),
    layer("engine.save_ms", "ms", "lower"),
    layer("store.encode_ms", "ms", "lower"),
    layer("store.decode_ms", "ms", "lower"),
    layer("store.snapshot_bytes", "bytes", "lower"),
    layer("store.wal_bytes_per_record", "bytes", "lower"),
    layer("store.wal_append_ns_per_record", "ns", "lower"),
    layer("store.wal_parse_ns_per_record", "ns", "lower"),
    layer("store.wal_sync_ms", "ms", "lower"),
    layer("service.codec_ns_per_op", "ns", "lower"),
    layer("service.wire_bytes_per_op", "bytes", "lower"),
    layer("service.inproc_read_us_mean", "us", "lower"),
    layer("service.inproc_write_us_mean", "us", "lower"),
    layer("service.wire_read_us", "us", "lower"),
    layer("service.wire_write_us", "us", "lower"),
    layer("service.write_overhead_us", "us", "lower"),
    layer("service.read_us_p99", "us", "lower"),
    layer("service.write_us_p99", "us", "lower"),
    layer("service.edits_per_recalc", "ratio", "higher"),
    layer("service.tcp_read_us_mean", "us", "lower"),
    layer("service.tcp_write_us_mean", "us", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.speed_factor", "ratio", "higher"),
    layer("bench.rounds", "count", "higher"),
    layer("bench.round_s", "s", "lower"),
];

/// Which service preset a workload's clients follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 95 % reads.
    ReaderHeavy,
    /// 75 % writes.
    WriterHeavy,
    /// 70 % reads.
    Mixed,
}

/// The frozen amount of work in one round. Every workload runs every
/// phase — the driver wants every end-to-end metric from every workload —
/// its own phases at full size and the others at companion size.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `enron_like(scale)` + `github_like(scale)`.
    pub corpus_scale: f64,
    /// Sheets taken from each corpus, smallest first (all of them, except
    /// in a smoke run).
    pub corpus_sheets: usize,
    /// Seeded dependents probes per sheet, besides the hot cells and the
    /// longest-path cell.
    pub dependents_per_sheet: usize,
    pub precedents_per_sheet: usize,
    /// Clear + re-add operations per sheet, each over `modify_rows` rows
    /// of one column.
    pub modify_per_sheet: usize,
    pub modify_rows: u32,
    /// Largest sheets per corpus rebuilt without compression (traced
    /// pass and correctness check).
    pub nocomp_sheets: usize,
    /// Correctness probes per corpus, TACO against no compression.
    pub check_probes: usize,
    pub engine_rows: u32,
    pub engine_sheets: usize,
    pub engine_burst: usize,
    pub serve_mix: Mix,
    pub serve_rows: u32,
    pub serve_ops_per_client: usize,
}

/// Closed-loop client threads, one TCP connection each.
pub const CLIENTS: usize = 2;

impl Sizes {
    /// What a workload's non-native phases run at.
    const COMPANION: Sizes = Sizes {
        corpus_scale: 0.05,
        corpus_sheets: 8,
        dependents_per_sheet: 2_000,
        precedents_per_sheet: 1_000,
        modify_per_sheet: 30,
        modify_rows: 1_000,
        nocomp_sheets: 1,
        check_probes: 50,
        engine_rows: 256,
        engine_sheets: 4,
        engine_burst: 100,
        serve_mix: Mix::Mixed,
        serve_rows: 256,
        serve_ops_per_client: 4_000,
    };

    /// `--smoke`: every phase of every workload in a few seconds.
    const SMOKE: Sizes = Sizes {
        corpus_sheets: 2,
        dependents_per_sheet: 100,
        precedents_per_sheet: 50,
        modify_per_sheet: 4,
        check_probes: 20,
        engine_rows: 64,
        engine_sheets: 3,
        engine_burst: 20,
        serve_rows: 64,
        serve_ops_per_client: 300,
        ..Sizes::COMPANION
    };

    pub fn of(workload: &str, smoke: bool) -> Option<Sizes> {
        let base = if smoke { Sizes::SMOKE } else { Sizes::COMPANION };
        let sizes = match (workload, smoke) {
            ("graph", false) => Sizes {
                corpus_scale: 1.0,
                corpus_sheets: 24,
                dependents_per_sheet: 1_000,
                precedents_per_sheet: 500,
                modify_per_sheet: 20,
                nocomp_sheets: 4,
                check_probes: 200,
                ..base
            },
            ("recalc", false) => {
                Sizes { engine_rows: 1_024, engine_sheets: 16, engine_burst: 60, ..base }
            }
            ("serve_read", false) => Sizes {
                serve_mix: Mix::ReaderHeavy,
                serve_rows: 2_048,
                serve_ops_per_client: 10_000,
                ..base
            },
            ("serve_write", false) => Sizes {
                serve_mix: Mix::WriterHeavy,
                serve_rows: 2_048,
                serve_ops_per_client: 2_600,
                ..base
            },
            ("serve_read", true) => Sizes { serve_mix: Mix::ReaderHeavy, ..base },
            ("serve_write", true) => Sizes { serve_mix: Mix::WriterHeavy, ..base },
            ("graph" | "recalc", true) => base,
            _ => return None,
        };
        Some(sizes)
    }
}

/// The flush policy of the WAL-backed workbook, stated with every result.
pub const FLUSH_POLICY: &str = "PersistOptions { sync_every_records: 0, ..default }: no per-edit \
                                fsync, compaction every 4096 records, final fsync at shutdown";

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(&why))
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_generated_from_this_file() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with `run.sh --print-spec`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.unit, "_/%.-", 16), "bad unit {}", m.unit);
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        for w in &WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why has {} chars", w.name, why.len());
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_workload_has_sizes_at_both_scales() {
        for w in &WORKLOADS {
            assert!(Sizes::of(w.name, false).is_some());
            assert!(Sizes::of(w.name, true).is_some());
        }
        assert!(Sizes::of("nope", false).is_none());
        // Scale is real on the native side.
        assert!(Sizes::of("graph", false).unwrap().corpus_scale >= 1.0);
        assert!(Sizes::of("recalc", false).unwrap().engine_rows >= 1_000);
        assert!(Sizes::of("serve_read", false).unwrap().serve_rows >= 2_000);
        assert!(Sizes::of("serve_write", false).unwrap().serve_rows >= 2_000);
    }
}
