#!/usr/bin/env bash
# Runs the full untraced set twice on the same build, the second time in
# the opposite workload order, and compares the two: per metric x workload
# both medians, their spreads across rounds, and the relative gap. Exits
# non-zero if a gap exceeds the metric's bound in BENCHMARK.json. This is
# the tool for the "two sets of runs agree" criterion and for
# re-calibrating round sizes.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S] [--baseline] [--reuse]
#
# --baseline also runs one traced pass per workload and writes both sets
# and the per-layer numbers to benchmark/results/baseline.json.
# --reuse compares the runs already under benchmark/out/selfcheck again.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

baseline=0
reuse=0
pass=()
while (($#)); do
    case "$1" in
    --baseline) baseline=1 ;;
    --reuse) reuse=1 ;;
    --seed | --seconds) pass+=("$1" "$2") && shift ;;
    *) echo "usage: selfcheck.sh [--seed N] [--seconds S] [--baseline] [--reuse]" >&2 && exit 2 ;;
    esac
    shift
done

out="$here/out"
run_set() { # <set name> <trace> <workload>...
    local set="$1" trace="$2" workload
    shift 2
    mkdir -p "$out/selfcheck/$set"
    for workload in "$@"; do
        "$here/run.sh" --workload "$workload" --trace "$trace" "${pass[@]}" >"$out/selfcheck/$set/$workload.txt"
        cp "$out/$workload."*.json "$out/selfcheck/$set/"
    done
}
if ((!reuse)); then
    rm -rf "$out/selfcheck"
    run_set set1 0 graph recalc serve_read serve_write
    run_set set2 0 serve_write serve_read recalc graph
    if ((baseline)); then
        run_set traced 1 graph recalc serve_read serve_write
    fi
fi

python3 - "$here" "$baseline" <<'PY'
import json, statistics, sys
here, baseline = sys.argv[1], sys.argv[2] == "1"
spec = json.load(open(f"{here}/../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
load = lambda s, w, kind: json.load(open(f"{here}/out/selfcheck/{s}/{w}.{kind}.json"))
sets = {s: {w: load(s, w, "e2e") for w in workloads} for s in ("set1", "set2")}

worst, failed = 0.0, []
print(f"{'metric @ workload':<40} {'set1':>14} {'iqr%':>6} {'set2':>14} {'iqr%':>6} {'gap%':>7} {'bound%':>7}")
for m in spec["end_to_end"]:
    for w in workloads:
        a, b = (sets[s][w]["metrics"][m["name"]] for s in ("set1", "set2"))
        spread = lambda x: 100 * (x["q3"] - x["q1"]) / x["value"] if x["value"] else 0.0
        gap = abs(a["value"] - b["value"]) / abs(a["value"]) if a["value"] else 0.0
        flag = ""
        if gap > m["bound"]:
            failed.append(f"{m['name']} @ {w}")
            flag = "  <-- over its bound"
        worst = max(worst, gap / m["bound"])
        print(f"{m['name'] + ' @ ' + w:<40} {a['value']:>14.4f} {spread(a):>6.1f} {b['value']:>14.4f} "
              f"{spread(b):>6.1f} {100 * gap:>7.2f} {100 * m['bound']:>7.1f}{flag}")
for s in sets.values():
    for w, r in s.items():
        if not r["correct"]:
            failed.append(f"{w}: {r['ops_failed']} of {r['ops_attempted']} operations failed")
print(f"largest gap is {100 * worst:.0f} % of its bound")

if baseline:
    doc = {"note": "first stamped result: two untraced sets (set2 in reverse workload order) and one traced pass",
           "set1": sets["set1"], "set2": sets["set2"],
           "traced": {w: load("traced", w, "layers") for w in workloads}}
    for part in doc.values():
        if isinstance(part, dict):
            for r in part.values():
                for metric in r["metrics"].values():
                    metric.pop("rounds")
                    unscaled = metric.pop("unscaled_rounds")
                    if unscaled:
                        metric["unscaled"] = statistics.median(unscaled)
    path = f"{here}/results/baseline.json"
    json.dump(doc, open(path, "w"), indent=1)
    print(f"wrote {path}")

if failed:
    print("selfcheck FAILED:", *failed, sep="\n  ")
    sys.exit(1)
print("selfcheck passed: the two sets agree within every bound")
PY
