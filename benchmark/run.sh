#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one workload, one process: what BENCHMARK.json's command runs
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       all four workloads, one process each
#   benchmark/run.sh --print-spec
#       the text of BENCHMARK.json
#
# Every metric is printed by name with its unit; the last line of standard
# output is the result object. Full results (spreads, per-round values,
# stamp, span totals) and traces go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

"$here/check_api.sh"

# The driver sets CARGO_TARGET_DIR (relative to where it runs us, so no cd
# before cargo); by hand the root workspace's target directory is shared.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/taco_benchmark"

TACO_BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
TACO_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
TACO_BENCH_NPROC="$(nproc 2>/dev/null || echo 0)"
export TACO_BENCH_GIT_REV TACO_BENCH_RUSTC TACO_BENCH_NPROC

# One core for the whole process: on this sandbox's two shared cores the
# cost of waking a thread on the other core doubles and halves every few
# minutes, and the served script's throughput with it (README, "Machine
# speed"). Pinned, clients, connection threads and writer time-share one
# core and the numbers repeat. Without taskset the run goes on unpinned;
# the stamp's cpus_allowed says which it was.
pin=()
if command -v taskset >/dev/null 2>&1; then
    core="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//')"
    if [ -n "$core" ] && taskset -c "$core" true 2>/dev/null; then
        pin=(taskset -c "$core")
    fi
fi

case " $* " in
*" --workload "* | *" --print-spec "*)
    exec "${pin[@]}" "$bin" --out "$here/out" "$@"
    ;;
esac
status=0
for workload in graph recalc serve_read serve_write; do
    "${pin[@]}" "$bin" --out "$here/out" --workload "$workload" "$@" || status=$?
done
exit "$status"
