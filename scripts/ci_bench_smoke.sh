#!/usr/bin/env bash
# Scheduler and discovery throughput smoke test.
#
# Two single-thread gates, each compared against the baseline recorded in
# scripts/bench_baseline.txt and failing below MIN_FRACTION (default 0.80):
#   * bench_micro_runtime's BM_SpawnExecuteThroughput/1 — the pure
#     spawn+execute path (deque + slab allocator), no steal noise.
#   * bench_micro_discovery's BM_DiscoveryMixed/10000/1 — the dependency-
#     discovery path (address table + history lists) at the 10k-address mix.
#
# Baseline file format: line 1 is the bare spawn items/s (kept first for
# compatibility), subsequent lines are "<name> <items/s>". A missing line
# is recorded from the current measurement and the check passes — commit
# the file to pin it. Re-record deliberately after a known perf change:
#   rm scripts/bench_baseline.txt && scripts/ci_bench_smoke.sh
#
# Besides the gate, each run appends one record per benchmark to the
# trajectory files BENCH_runtime.json and BENCH_discovery.json (JSON
# arrays of {name, median_items_per_second, threads, git_sha, date};
# BM_MetricsOverheadExecute/0 and /1 and BM_DiscoveryLogicalAddresses
# are recorded there ungated),
# and runs the strict-verified taskbench METG smoke sweep, bulk-recording
# its pattern x engine x config frontier into BENCH_metg.json
# ({name, value, unit, threads, git_sha, date}), so successive CI runs
# accumulate a perf history alongside pass/fail. The sampled verifier's
# TDG_VERIFY=sample-vs-off overhead pairs are gated (VERIFY_MIN_RATIO
# default 0.95 for spawn+execute, VERIFY_CHAIN_MIN_RATIO default 0.80 for
# the pure-discovery chain, VERIFY_WINDOWS_MIN_RATIO default 0.80 for
# timed taskwait windows), as is the flatness of the post-mode check over
# a growing history (VERIFY_HISTORY_MIN_RATIO default 0.80), and recorded
# into BENCH_verify.json the same way.
# Appending goes through scripts/record_trajectory.py (validation,
# dedupe, cap).
# BENCH_OUT_DIR (default: repo root) selects where they are written.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${BENCH_BUILD_DIR:-build}
baseline_file=scripts/bench_baseline.txt
min_fraction=${MIN_FRACTION:-0.80}
out_dir=${BENCH_OUT_DIR:-.}

# measure <binary> <filter>: print the median items_per_second over the
# benchmark's repetitions (the aggregate google-benchmark reports).
measure() {
  "$build_dir"/bench/"$1" \
      --benchmark_filter="$2" \
      --benchmark_min_time=0.2 \
      --benchmark_repetitions=3 \
      --benchmark_format=json 2>/dev/null | python3 -c '
import json, sys
doc = json.load(sys.stdin)
med = [b for b in doc["benchmarks"]
       if b.get("run_type") == "aggregate" and b.get("aggregate_name") == "median"]
if med:
    print(med[0]["items_per_second"])
else:
    bms = [b for b in doc["benchmarks"]
           if b.get("run_type", "iteration") == "iteration"]
    assert bms, "benchmark produced no measurements"
    vals = sorted(b["items_per_second"] for b in bms)
    print(vals[len(vals) // 2])
'
}

# record_trajectory <file> <bench-name> <threads> <median>: append one
# validated record to the JSON-array trajectory file (created on first
# use). See scripts/record_trajectory.py for the validation, dedupe and
# cap semantics.
record_trajectory() {
  python3 scripts/record_trajectory.py "$out_dir/$1" "$2" "$3" "$4"
}

# gate <name> <current>: compare against the named baseline line (the
# unnamed first line for "spawn"), recording it if absent.
gate() {
  local name=$1 current=$2 baseline
  if [ "$name" = spawn ]; then
    baseline=$(head -n1 "$baseline_file" 2>/dev/null || true)
  else
    baseline=$(awk -v n="$name" '$1 == n { print $2 }' "$baseline_file" \
                 2>/dev/null || true)
  fi
  if [ -z "$baseline" ]; then
    if [ "$name" = spawn ]; then
      printf '%s\n' "$current" >> "$baseline_file"
    else
      printf '%s %s\n' "$name" "$current" >> "$baseline_file"
    fi
    echo "=== [bench-smoke] no $name baseline; recorded $current items/s ==="
    return 0
  fi
  python3 - "$name" "$current" "$baseline" "$min_fraction" <<'EOF'
import sys
name = sys.argv[1]
current, baseline, min_fraction = map(float, sys.argv[2:5])
ratio = current / baseline
print(f"=== [bench-smoke] {name} throughput {current:.3e} items/s "
      f"(baseline {baseline:.3e}, ratio {ratio:.2f}, floor {min_fraction}) ===")
if ratio < min_fraction:
    sys.exit(f"bench-smoke FAILED: {name} throughput regressed to "
             f"{ratio:.0%} of baseline (floor {min_fraction:.0%})")
EOF
}

for target in bench_micro_runtime bench_micro_discovery bench_metg \
              bench_multitenant; do
  if [ ! -x "$build_dir"/bench/"$target" ]; then
    echo "=== [bench-smoke] building $build_dir/$target ==="
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" \
          --target "$target"
  fi
done

echo "=== [bench-smoke] running BM_SpawnExecuteThroughput/1 ==="
spawn=$(measure bench_micro_runtime 'BM_SpawnExecuteThroughput/1$')
echo "=== [bench-smoke] running BM_DiscoveryMixed/10000/1 ==="
discovery=$(measure bench_micro_discovery 'BM_DiscoveryMixed/10000/1$')
# The same mix on the emitters' logical addresses (consecutive integers,
# then 2^20-striped fields): recorded only, not gated.
logical=BM_DiscoveryLogicalAddresses/keys:10000
echo "=== [bench-smoke] running $logical/striped:{0,1} ==="
logical_ints=$(measure bench_micro_discovery "$logical/striped:0\$")
logical_striped=$(measure bench_micro_discovery "$logical/striped:1\$")

# The default (metrics on) execution path next to metrics off, one
# thread: recorded only, not gated.
echo "=== [bench-smoke] running BM_MetricsOverheadExecute/{0,1} ==="
execute_off=$(measure bench_micro_runtime 'BM_MetricsOverheadExecute/0$')
execute_on=$(measure bench_micro_runtime 'BM_MetricsOverheadExecute/1$')

record_trajectory BENCH_runtime.json BM_SpawnExecuteThroughput/1 1 "$spawn"
record_trajectory BENCH_runtime.json BM_MetricsOverheadExecute/0 1 \
                  "$execute_off"
record_trajectory BENCH_runtime.json BM_MetricsOverheadExecute/1 1 \
                  "$execute_on"
record_trajectory BENCH_discovery.json BM_DiscoveryMixed/10000/1 1 \
                  "$discovery"
record_trajectory BENCH_discovery.json "$logical/striped:0" 1 "$logical_ints"
record_trajectory BENCH_discovery.json "$logical/striped:1" 1 \
                  "$logical_striped"

gate spawn "$spawn"
gate discovery "$discovery"

# taskbench METG smoke: the full pattern matrix at smoke scale on both
# engines, every real-runtime leg strict-verified, frontier records
# bulk-appended to BENCH_metg.json. The coverage check keeps the leg
# honest: losing a pattern or an engine from the sweep fails CI.
echo "=== [bench-smoke] running bench_metg --smoke (TDG_VERIFY=strict) ==="
metg_json=$(mktemp)
trap 'rm -f "$metg_json"' EXIT
TDG_VERIFY=strict "$build_dir"/bench/bench_metg --smoke --json "$metg_json"
python3 - "$metg_json" <<'EOF'
import json, sys
records = json.load(open(sys.argv[1]))
engines = {}
for r in records:
    parts = r["name"].split("/")  # taskbench/<pattern>/<engine>/<config>
    if parts[0] == "taskbench" and len(parts) == 4:
        engines.setdefault((parts[2], parts[3]), set()).add(parts[1])
for engine in ("real", "sim"):
    for config in ("opt", "unopt"):
        n = len(engines.get((engine, config), set()))
        print(f"=== [bench-smoke] taskbench coverage: {n} patterns "
              f"on {engine}/{config} ===")
        if n < 6:
            sys.exit(f"bench-smoke FAILED: only {n} patterns swept on "
                     f"{engine}/{config} (need >= 6)")
EOF
python3 scripts/record_trajectory.py --bulk "$metg_json" \
        "$out_dir/BENCH_metg.json"

# Multi-tenant smoke: batched submission must beat per-task submission on
# discovery throughput (the deferred per-submit publication costs), and
# the tenant-scaling sweep is recorded so the trajectory catches shared-
# pool contention regressions. BATCH_MIN_RATIO (default 1.15) is the gate.
batch_min_ratio=${BATCH_MIN_RATIO:-1.15}
echo "=== [bench-smoke] running bench_multitenant submission pair ==="
per_task=$(measure bench_multitenant 'BM_SubmitPerTask$')
batch=$(measure bench_multitenant 'BM_SubmitBatch$')
echo "=== [bench-smoke] running BM_MultitenantThroughput sweep ==="
mt2=$(measure bench_multitenant 'BM_MultitenantThroughput/2/real_time$')
mt8=$(measure bench_multitenant 'BM_MultitenantThroughput/8/real_time$')

mt_json=$(mktemp)
trap 'rm -f "$metg_json" "$mt_json"' EXIT
python3 - "$per_task" "$batch" "$mt2" "$mt8" > "$mt_json" <<'EOF'
import json, sys
per_task, batch, mt2, mt8 = map(float, sys.argv[1:5])
print(json.dumps([
    {"name": "multitenant/submit_per_task", "value": per_task,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "multitenant/submit_batch", "value": batch,
     "unit": "tasks_per_second", "threads": 1},
    {"name": "multitenant/throughput_2_tenants", "value": mt2,
     "unit": "tasks_per_second", "threads": 2},
    {"name": "multitenant/throughput_8_tenants", "value": mt8,
     "unit": "tasks_per_second", "threads": 8},
]))
EOF
python3 scripts/record_trajectory.py --bulk "$mt_json" \
        "$out_dir/BENCH_multitenant.json"

python3 - "$per_task" "$batch" "$batch_min_ratio" <<'EOF'
import sys
per_task, batch, floor = map(float, sys.argv[1:4])
ratio = batch / per_task
print(f"=== [bench-smoke] batch submission {batch:.3e} tasks/s vs "
      f"per-task {per_task:.3e} (ratio {ratio:.2f}, floor {floor}) ===")
if ratio < floor:
    sys.exit(f"bench-smoke FAILED: batch submission only {ratio:.2f}x "
             f"per-task submit (floor {floor}x)")
EOF

# measure_best <binary> <filter>: best items_per_second over the
# repetitions. Used for the verify-overhead ratio legs: a ratio gate wants
# the least-noisy estimate of each side's attainable throughput, and the
# max over repetitions converges on that much faster than the median.
measure_best() {
  "$build_dir"/bench/"$1" \
      --benchmark_filter="$2" \
      --benchmark_min_time=0.2 \
      --benchmark_repetitions=5 \
      --benchmark_format=json 2>/dev/null | python3 -c '
import json, sys
doc = json.load(sys.stdin)
bms = [b for b in doc["benchmarks"]
       if b.get("run_type", "iteration") == "iteration"]
assert bms, "benchmark produced no measurements"
print(max(b["items_per_second"] for b in bms))
'
}

# Sampled-verifier overhead gate, three legs, each TDG_VERIFY=sample
# against off (stream capture for every task, one task in 16 checked at
# each taskwait):
#   * spawn — BM_SpawnExecuteThroughput/1, the end-to-end spawn+execute
#     path with no depend clauses (nothing captured). Floor
#     VERIFY_MIN_RATIO (default 0.95): the "<5% overhead" claim.
#   * chain — BM_SubmitChain/1000, pure depend-discovery on zero-width
#     tasks, the capture's worst case (every submit records one access and
#     one edge with no task body to hide them; the taskwait is untimed).
#     Floor VERIFY_CHAIN_MIN_RATIO (default 0.80).
#   * windows — BM_TaskwaitWindows/2000/8, eight 2000-task windows of
#     two-clause tasks with every taskwait timed, so the check itself is
#     priced, not only the capture. Floor VERIFY_WINDOWS_MIN_RATIO
#     (default 0.80).
# A fourth gate keeps each taskwait's check to its own window: under
# TDG_VERIFY=post, BM_TaskwaitWindows/2000/64 (eight times the history)
# must reach VERIFY_HISTORY_MIN_RATIO (default 0.80) of /2000/8's items/s;
# re-checking the history would make it fall with the window count.
# Every measurement lands in BENCH_verify.json.
verify_min_ratio=${VERIFY_MIN_RATIO:-0.95}
verify_chain_min_ratio=${VERIFY_CHAIN_MIN_RATIO:-0.80}
verify_windows_min_ratio=${VERIFY_WINDOWS_MIN_RATIO:-0.80}
verify_history_min_ratio=${VERIFY_HISTORY_MIN_RATIO:-0.80}
# verify_pair <filter> <mode-a> <mode-b> [<filter-b>]: two alternating
# rounds of measure_best, printing the better of each side. Machine-speed
# drift between process invocations (frequency scaling, cache state) then
# lands on both sides instead of sinking whichever ran during the slow
# phase.
verify_pair() {
  local fa=$1 ma=$2 mb=$3 fb=${4:-$1} a1 b1 a2 b2
  a1=$(TDG_VERIFY=$ma measure_best bench_micro_runtime "$fa")
  b1=$(TDG_VERIFY=$mb measure_best bench_micro_runtime "$fb")
  a2=$(TDG_VERIFY=$ma measure_best bench_micro_runtime "$fa")
  b2=$(TDG_VERIFY=$mb measure_best bench_micro_runtime "$fb")
  python3 -c 'import sys; a1, b1, a2, b2 = map(float, sys.argv[1:5]);
print(max(a1, a2), max(b1, b2))' "$a1" "$b1" "$a2" "$b2"
}
echo "=== [bench-smoke] running BM_SpawnExecuteThroughput/1 (verify off/sample) ==="
spawn_pair=$(verify_pair 'BM_SpawnExecuteThroughput/1$' off sample)
echo "=== [bench-smoke] running BM_SubmitChain/1000 (verify off/sample) ==="
chain_pair=$(verify_pair 'BM_SubmitChain/1000$' off sample)
echo "=== [bench-smoke] running BM_TaskwaitWindows/2000/8 (verify off/sample) ==="
windows_pair=$(verify_pair 'BM_TaskwaitWindows/2000/8$' off sample)
echo "=== [bench-smoke] running BM_TaskwaitWindows/2000/{8,64} (verify post) ==="
history_pair=$(verify_pair 'BM_TaskwaitWindows/2000/8$' post post \
                           'BM_TaskwaitWindows/2000/64$')

verify_json=$(mktemp)
trap 'rm -f "$metg_json" "$mt_json" "$verify_json"' EXIT
# Each *_pair holds two numbers, so they are expanded unquoted.
# shellcheck disable=SC2086
python3 - $spawn_pair $chain_pair $windows_pair $history_pair \
          > "$verify_json" <<'EOF'
import json, sys
names = ("spawn_off", "spawn_sample", "chain_off", "chain_sample",
         "windows_off", "windows_sample", "post_8_windows", "post_64_windows")
print(json.dumps([
    {"name": "verify/" + name, "value": float(value),
     "unit": "tasks_per_second", "threads": 1}
    for name, value in zip(names, sys.argv[1:9], strict=True)
]))
EOF
python3 scripts/record_trajectory.py --bulk "$verify_json" \
        "$out_dir/BENCH_verify.json"

# shellcheck disable=SC2086
python3 - $spawn_pair "$verify_min_ratio" $chain_pair \
          "$verify_chain_min_ratio" $windows_pair "$verify_windows_min_ratio" \
          $history_pair "$verify_history_min_ratio" <<'EOF'
import sys
vals = list(map(float, sys.argv[1:13]))
legs = (("spawn", "off", "sample", *vals[0:3]),
        ("chain", "off", "sample", *vals[3:6]),
        ("windows", "off", "sample", *vals[6:9]),
        ("history", "post 8 windows", "post 64 windows", *vals[9:12]))
for name, label_a, label_b, a, b, floor in legs:
    ratio = b / a
    print(f"=== [bench-smoke] verify {name}: {label_b} {b:.3e} tasks/s vs "
          f"{label_a} {a:.3e} (ratio {ratio:.2f}, floor {floor}) ===")
    if ratio < floor:
        sys.exit(f"bench-smoke FAILED: verify {name} ratio {ratio:.2f} "
                 f"below floor {floor}")
EOF
