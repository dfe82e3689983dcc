//! `EXPERIMENTS.md` maps the paper's tables and figures onto metrics of
//! `BENCHMARK.json`. A metric renamed or dropped there must not leave the
//! document pointing at nothing: every back-ticked per-layer name
//! (`core.edges`, `bench.speed_factor`, …) and every back-ticked
//! `metric @ workload` pair in the document has to be declared.

use std::collections::BTreeSet;

/// The `"name"` values of the array that follows `"key":` in the spec.
/// (No JSON parser in the workspace; the spec is one object per line.)
fn declared<'a>(spec: &'a str, key: &str) -> BTreeSet<&'a str> {
    let from = spec.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key:?} in the spec"));
    let array = &spec[from..];
    let array = &array[..array.find(']').expect("the array closes")];
    array
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("quoted")])
        .collect()
}

#[test]
fn every_metric_experiments_md_names_is_declared_in_benchmark_json() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |name: &str| {
        std::fs::read_to_string(format!("{root}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let (doc, spec) = (read("EXPERIMENTS.md"), read("BENCHMARK.json"));
    let workloads = declared(&spec, "workloads");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!(per_layer.contains("core.edges") && end_to_end.contains("edges_per_kdep"));

    const LAYERS: [&str; 8] =
        ["core.", "rtree.", "engine.", "store.", "service.", "formula.", "bench.", "process."];
    let (mut layer_refs, mut pair_refs) = (0, 0);
    // Odd pieces of a split on back-ticks are the code spans.
    for span in doc.split('`').skip(1).step_by(2) {
        if let Some((metric, workload)) = span.split_once(" @ ") {
            assert!(end_to_end.contains(metric), "`{span}`: no end-to-end metric {metric:?}");
            assert!(workloads.contains(workload), "`{span}`: no workload {workload:?}");
            pair_refs += 1;
        } else if LAYERS.iter().any(|layer| span.starts_with(layer)) {
            assert!(per_layer.contains(span), "`{span}` is not a per-layer metric of the spec");
            layer_refs += 1;
        }
    }
    assert!(layer_refs >= 10 && pair_refs >= 3, "the document names its metrics in code spans");
}
