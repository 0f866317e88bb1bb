#!/usr/bin/env bash
# Build rosbench_e2e from source, then run it.
#
#   bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload in this process; the last stdout line is the JSON result
#   bash bench/e2e/run.sh compare A.jsonl B.jsonl
#       apply BENCHMARK.json's bounds to two snapshots
#   bash bench/e2e/run.sh
#       every workload, untraced then traced, each in its own process;
#       prints "workload metric value unit" lines and writes a snapshot
#       (JSON lines) and one Chrome trace per workload to the build tree
#
# Build tree: $CARGO_TARGET_DIR/e2e when set, else .bench_build/e2e at the
# repository root. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:-$root/.bench_build}/e2e"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target rosbench_e2e -j "$jobs" >&2
bin="$build/rosbench_e2e"

if (( $# > 0 )); then
  exec "$bin" "$@"
fi

snapshot="$build/snapshot_$(date -u +%Y%m%dT%H%M%SZ).jsonl"
for workload in corridor_soak roadside_full micro_sweep; do
  "$bin" --workload "$workload" --trace 0 --out "$snapshot" | sed '$d'
  "$bin" --workload "$workload" --trace 1 --out "$snapshot" \
    --trace-out "$build/$workload.trace.json" | sed '$d'
done
echo "snapshot: $snapshot" >&2
