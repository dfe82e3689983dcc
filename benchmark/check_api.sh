#!/usr/bin/env bash
# The benchmark may use only the durable surface of the crates: a later PR
# that removes one of these names (ROADMAP items 2-3) may not edit
# benchmark/ and must still compile against it. Fails on a hit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
forbidden='CellParallel|Parallel|coalesce|max_batch|_with_stats|_with_scratch|_reusing|QueryStats|GraphSnapshot|snapshot\(\)|restore|serde_json|encode_workbook_versioned|encode_traced|decode_traced|WIRE_VERSION|FORMAT_VERSION'
if grep -rnE "$forbidden" "$here/src" "$here/tests" "$here/Cargo.toml"; then
    echo "check_api: benchmark/ names an API on ROADMAP's removal lists (above)" >&2
    exit 1
fi
