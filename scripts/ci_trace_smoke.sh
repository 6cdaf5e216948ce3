#!/usr/bin/env bash
# End-to-end smoke test of the observability layer: build, run an example
# with TDG_TRACE=perfetto + TDG_METRICS=dump, validate that the emitted
# trace is well-formed JSON with its otherData.t0_ns origin (python3, when
# available), then run the tdg-trace CLI (summary / critpath / merge
# round-trip) on it.
#
# The distributed section then runs distributed_halo on 4 simulated ranks
# with comm tracing + telemetry on, stitches the per-rank files with
# `tdg-trace merge`, and asserts the merged view reports cross-rank
# message edges and nonzero communication wait.
#
# Usage: scripts/ci_trace_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

dir=${1:-build}
jobs=$(nproc 2>/dev/null || echo 2)

echo "=== [trace-smoke] configure ($dir) ==="
cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

echo "=== [trace-smoke] build ==="
cmake --build "$dir" -j "$jobs" --target cholesky_demo distributed_halo \
      tdg-trace

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
trace="$workdir/trace.json"

echo "=== [trace-smoke] run cholesky_demo with TDG_TRACE=perfetto ==="
(cd "$workdir" && TDG_TRACE=perfetto TDG_TRACE_FILE="$trace" \
    TDG_METRICS=dump "$OLDPWD/$dir/examples/cholesky_demo" 8 32)
[ -s "$trace" ] || { echo "trace file was not written" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
  echo "=== [trace-smoke] validate trace JSON ==="
  python3 - "$trace" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
slices = [e for e in events if e.get("ph") == "X"]
assert slices, "no task slices in trace"
assert any(e.get("ph") == "M" for e in events), "no metadata events"
assert any(e.get("ph") == "s" for e in events), "no flow events"
for s in slices:
    assert "ts" in s and "dur" in s and "name" in s, f"malformed slice: {s}"
t0 = doc["otherData"]["t0_ns"]
assert isinstance(t0, str) and t0.isdigit(), f"t0_ns not decimal: {t0!r}"
print(f"trace ok: {len(events)} events, {len(slices)} task slices")
EOF
else
  echo "=== [trace-smoke] python3 not found; skipping JSON validation ==="
fi

echo "=== [trace-smoke] tdg-trace summary ==="
"$dir/tools/tdg-trace" summary "$trace"

echo "=== [trace-smoke] tdg-trace critpath ==="
"$dir/tools/tdg-trace" critpath "$trace" -n 5

echo "=== [trace-smoke] tdg-trace merge round-trip ==="
"$dir/tools/tdg-trace" merge "$trace" --no-offsets -o "$workdir/back.json"
"$dir/tools/tdg-trace" summary "$workdir/back.json" >/dev/null
"$dir/tools/tdg-trace" critpath "$workdir/back.json" -n 1 >/dev/null

echo "=== [trace-smoke] distributed_halo on 4 ranks with tracing ==="
# Each rank's runtime writes its own sequence-numbered trace file
# (dist.json, dist.json.1, ...); telemetry dumps a per-rank time-series.
(cd "$workdir" && TDG_TRACE=perfetto TDG_TRACE_FILE="$workdir/dist.json" \
    TDG_TELEMETRY=dump TDG_TELEMETRY_FILE="$workdir/telemetry.json" \
    TDG_TELEMETRY_PERIOD_MS=1 \
    "$OLDPWD/$dir/examples/distributed_halo" 4 2048 6)
rank_traces=("$workdir"/dist.json*)
[ "${#rank_traces[@]}" -eq 4 ] || {
  echo "expected 4 per-rank trace files, got ${#rank_traces[@]}" >&2
  exit 1
}

echo "=== [trace-smoke] merge per-rank traces ==="
merged="$workdir/merged.json"
"$dir/tools/tdg-trace" merge "${rank_traces[@]}" -o "$merged" \
    2> "$workdir/merge.log"
cat "$workdir/merge.log"
grep -q "matched [1-9]" "$workdir/merge.log" || {
  echo "merge matched no send/recv pairs" >&2; exit 1;
}

echo "=== [trace-smoke] merged summary / timeline / critpath ==="
"$dir/tools/tdg-trace" summary "$merged" | tee "$workdir/summary.log"
"$dir/tools/tdg-trace" timeline "$merged" | tee "$workdir/timeline.log"
"$dir/tools/tdg-trace" critpath "$merged" -n 3 > "$workdir/critpath.log"

# Cross-rank edges made it into the merged graph...
edges=$(sed -n 's/.*cross-rank message edges: \([0-9]*\).*/\1/p' \
        "$workdir/summary.log")
[ -n "$edges" ] && [ "$edges" -gt 0 ] || {
  echo "merged summary reports no cross-rank message edges" >&2; exit 1;
}
# ...and the timeline attributes nonzero communication wait.
grep -q "comm wait" "$workdir/timeline.log" || {
  echo "timeline lacks the comm-wait column" >&2; exit 1;
}
if grep -q "comm wait: 0.0 us" "$workdir/timeline.log"; then
  echo "timeline reports zero communication wait" >&2; exit 1
fi

if command -v python3 >/dev/null 2>&1; then
  echo "=== [trace-smoke] validate merged trace + telemetry JSON ==="
  python3 - "$merged" "$workdir/telemetry.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
comm = [e for e in events if e.get("cat") == "comm"]
msg = [e for e in events if e.get("cat") == "msg"]
pids = {e["pid"] for e in events if e.get("ph") == "X"}
assert comm, "no comm slices in merged trace"
assert msg, "no cross-rank message flows in merged trace"
assert len(pids) >= 4, f"expected >= 4 rank tracks, got {sorted(pids)}"
with open(sys.argv[2]) as f:
    telem = json.load(f)
ranks = telem["ranks"]
assert len(ranks) == 4, f"expected 4 telemetry ranks, got {len(ranks)}"
for r in ranks:
    assert r["samples"], f"rank {r['rank']} has no telemetry samples"
    last = r["samples"][-1]
    for name in ("comm.sends", "exec.tasks"):
        assert last.get(name, 0) > 0, \
            f"rank {r['rank']}: last telemetry sample has {name} = 0"
print(f"merged trace ok: {len(comm)} comm slices, {len(msg)} message "
      f"flows, {len(ranks)} telemetry ranks")
EOF
else
  echo "=== [trace-smoke] python3 not found; skipping JSON validation ==="
fi

echo "=== trace smoke passed ==="
